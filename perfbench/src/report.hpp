// report.hpp — what one benchmark run hands back to main().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON of a traced run ("" = none)
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed checks; empty = correct
  std::string detail_json;            ///< sample counts, tails, lag, books
};

/// The workloads run_workload() knows: BENCHMARK.json's, in its order,
/// then the ones it leaves out (README.md says why).
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload end to end: input generation, set-up, the measured
/// phase, the output checks, and (traced) the layer replays.
[[nodiscard]] RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
