// profiling_tvl1 — reproduces the Section I profiling observation
// (experiment E4): "approximately 90% of the execution time is spent on the
// Chambolle iterative technique" inside the full TV-L1 scheme, and software
// TV-L1 is far from real-time.
//
// Every row is the median of kRepeats flows (the share is printed as
// min/median/max too): one flow's share moves by several points with host
// noise, so the pass/fail line judges the median.  The sequential reference
// rows carry the paper's setting; the resident rows show the served inner
// solver (both flow components as the planes of one engine, on the default
// pool).
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/text_table.hpp"
#include "telemetry/bench_report.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/synthetic.hpp"

int main() {
  using namespace chambolle;
  constexpr int kRepeats = 5;

  std::printf("SECTION I PROFILING — SHARE OF TV-L1 TIME SPENT IN CHAMBOLLE\n");
  std::printf("(median of %d flows per row; share as min/median/max)\n\n",
              kRepeats);
  TextTable table({"Frame", "Solver", "Levels", "Warps", "Inner runs",
                   "Inner iters", "Total (s)", "Chambolle (s)",
                   "Outer steps (s)", "Chambolle share", "Share min/med/max",
                   "Outer share"});

  double share_at_paper_settings = 0.0;
  double seconds_per_frame = 0.0;
  const std::pair<tvl1::InnerSolver, const char*> solvers[] = {
      {tvl1::InnerSolver::kReference, "reference"},
      {tvl1::InnerSolver::kResident, "resident"}};
  for (const int n : {64, 128, 192}) {
    const auto wl = workloads::translating_scene(n, n, 2.f, 1.f);
    for (const auto& [solver, name] : solvers) {
      tvl1::Tvl1Params params;
      params.pyramid_levels = 4;
      params.warps = 5;
      params.chambolle.iterations = 50;  // the paper's lightest setting
      params.solver = solver;

      std::vector<double> total, chambolle, outer, share, outer_share;
      tvl1::Tvl1Stats stats;
      for (int rep = 0; rep < kRepeats; ++rep) {
        (void)tvl1::compute_flow(wl.frame0, wl.frame1, params, &stats);
        total.push_back(stats.total_seconds);
        chambolle.push_back(stats.chambolle_seconds);
        outer.push_back(stats.outer_seconds);
        share.push_back(stats.chambolle_fraction());
        outer_share.push_back(stats.outer_fraction());
      }
      const telemetry::RepeatStats s = telemetry::repeat_stats(share);
      const double total_median = telemetry::repeat_stats(total).median;
      table.add_row(
          {std::to_string(n) + "x" + std::to_string(n), name,
           std::to_string(stats.levels_processed),
           std::to_string(params.warps), std::to_string(stats.inner_runs),
           std::to_string(stats.chambolle_inner_iterations),
           TextTable::num(total_median, 3),
           TextTable::num(telemetry::repeat_stats(chambolle).median, 3),
           TextTable::num(telemetry::repeat_stats(outer).median, 3),
           TextTable::num(100.0 * s.median, 1) + "%",
           TextTable::num(100.0 * s.min, 1) + "/" +
               TextTable::num(100.0 * s.median, 1) + "/" +
               TextTable::num(100.0 * s.max, 1) + "%",
           TextTable::num(100.0 * telemetry::repeat_stats(outer_share).median,
                          1) +
               "%"});
      if (n == 192 && solver == tvl1::InnerSolver::kReference) {
        share_at_paper_settings = s.median;
        seconds_per_frame = total_median;
      }
    }
  }
  std::cout << table.to_string();

  std::printf("\nPaper claims reproduced:\n");
  std::printf("  ~90%% of TV-L1 time inside Chambolle (paper: 'approximately "
              "90%%'): measured %.0f%% (median, 192x192, reference solver) — "
              "%s\n",
              100.0 * share_at_paper_settings,
              share_at_paper_settings > 0.75 ? "yes" : "NO");
  const double projected_512 =
      seconds_per_frame * (512.0 * 512.0) / (192.0 * 192.0);
  std::printf("  software TV-L1 is far from real time (paper: >15 s/frame on "
              "x86 at full settings): %.2f s/frame projected at 512x512 with "
              "200-iteration solves => %.2f s\n",
              projected_512, projected_512 * 4.0);
  return share_at_paper_settings > 0.75 ? 0 : 1;
}
