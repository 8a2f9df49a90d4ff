// profiling_tvl1 — reproduces the Section I profiling observation
// (experiment E4): "approximately 90% of the execution time is spent on the
// Chambolle iterative technique" inside the full TV-L1 scheme, and software
// TV-L1 is far from real-time.
#include <cstdio>
#include <iostream>

#include "common/text_table.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/synthetic.hpp"

int main() {
  using namespace chambolle;

  std::printf("SECTION I PROFILING — SHARE OF TV-L1 TIME SPENT IN CHAMBOLLE\n\n");
  TextTable table({"Frame", "Levels", "Warps", "Inner iters", "Total (s)",
                   "Chambolle (s)", "Outer steps (s)", "Chambolle share",
                   "Outer share"});

  double share_at_paper_settings = 0.0;
  double seconds_per_frame = 0.0;
  for (const int n : {64, 128, 192}) {
    const auto wl = workloads::translating_scene(n, n, 2.f, 1.f);
    tvl1::Tvl1Params params;
    params.pyramid_levels = 4;
    params.warps = 5;
    params.chambolle.iterations = 50;  // the paper's lightest setting

    tvl1::Tvl1Stats stats;
    (void)tvl1::compute_flow(wl.frame0, wl.frame1, params, &stats);
    table.add_row({std::to_string(n) + "x" + std::to_string(n),
                   std::to_string(stats.levels_processed),
                   std::to_string(params.warps),
                   std::to_string(stats.chambolle_inner_iterations),
                   TextTable::num(stats.total_seconds, 3),
                   TextTable::num(stats.chambolle_seconds, 3),
                   TextTable::num(stats.outer_seconds, 3),
                   TextTable::num(100.0 * stats.chambolle_fraction(), 1) + "%",
                   TextTable::num(100.0 * stats.outer_fraction(), 1) + "%"});
    if (n == 192) {
      share_at_paper_settings = stats.chambolle_fraction();
      seconds_per_frame = stats.total_seconds;
    }
  }
  std::cout << table.to_string();

  std::printf("\nPaper claims reproduced:\n");
  std::printf("  ~90%% of TV-L1 time inside Chambolle (paper: 'approximately "
              "90%%'): measured %.0f%% — %s\n",
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
