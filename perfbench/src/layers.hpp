// layers.hpp — the traced replays behind the per-layer metrics.  Each one
// calls a module's public functions directly and times them from outside
// with benchmark-side spans; nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Runs every layer replay (parallel, kernels, chambolle, tvl1) on inputs
/// made from `seed` and returns their metrics.  The tvl1 replay's flows are
/// compared byte for byte with tvl1::compute_flow; mismatches go to
/// `problems`.
[[nodiscard]] std::vector<Metric> run_layers(Tracer& tracer, std::uint64_t seed,
                                             Problems& problems);

}  // namespace perfbench
