// stats.hpp — order statistics and the small numeric helpers every
// workload's report uses.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated q-quantile (the "type 7" definition numpy and
/// Python's statistics module use by default); NaN when `samples` is empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Samples that lie beyond the q-quantile of `n` samples: n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

struct Percentile {
  double q = 0.0;          ///< e.g. 0.9 for p90
  double value = 0.0;      ///< the quantile itself
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples_beyond(samples, q)
};

/// The highest of p50, p75, p90, p95, p99, p99.9 that still has at least
/// ten samples beyond it — the tail a run of this size can report without
/// resting on a handful of observations.  nullopt below 20 samples.
[[nodiscard]] std::optional<Percentile> tail_percentile(
    const std::vector<double>& samples);

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set, through /proc/self/clear_refs.  Where that fails,
/// peak_rss_mb() goes on counting from the start of the process.
void reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss()
/// (or since it started), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Time every CPU of the machine has spent since boot, in clock ticks: in
/// total, and stolen by the hypervisor for other guests (/proc/stat); zeros
/// where it cannot be read.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Current resident set size of this process, in MiB (/proc/self/statm;
/// NaN where it cannot be read).
[[nodiscard]] double current_rss_mb();

}  // namespace perfbench
