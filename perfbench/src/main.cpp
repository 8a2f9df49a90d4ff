// perfbench — one served-frame benchmark, kernel to service.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Prints the host fingerprint and the run's details as JSON lines, then, as
// the last line, {"correct", "attempted", "failed", "metrics"}.  Exits 1
// when any output check fails or the run throws, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host.hpp"
#include "report.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opt.workload;
  if (!known) return usage("unknown workload " + opt.workload);

  perfbench::RunReport r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  for (const auto& p : r.problems) std::cerr << "CHECK FAILED: " << p << '\n';

  std::cout << "{\"host\": " << perfbench::to_json(perfbench::probe_host()) << "}\n";
  std::cout << "{\"detail\": " << r.detail_json << "}\n";
  std::string metrics;
  for (const auto& m : r.metrics) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += perfbench::json_string(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + perfbench::json_string(m.unit) + "}";
  }
  const bool correct = r.problems.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
