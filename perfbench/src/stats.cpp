#include "stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

std::optional<Percentile> tail_percentile(const std::vector<double>& samples) {
  constexpr double kCandidates[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : kCandidates) {
    const std::size_t beyond = samples_beyond(samples.size(), q);
    if (beyond >= 10) return Percentile{q, quantile(samples, q), samples.size(), beyond};
  }
  return std::nullopt;
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double peak_rss_mb() {
  // VmHWM follows reset_peak_rss(); getrusage's ru_maxrss does not.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return {};
  CpuTicks t;
  for (double& f : field) {
    if (!(stat >> f)) return {};
    t.total += f;
  }
  t.steal = field[7];
  return t;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages))
    return std::numeric_limits<double>::quiet_NaN();
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
