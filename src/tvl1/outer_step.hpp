// outer_step.hpp — the fused, row-parallel TV-L1 outer step and the
// coarse-to-fine loop every pipeline runs.
//
// I1's gradients depend only on the pyramid level, so the loop computes them
// once per level; per warp, the fused pass takes each pixel's bilinear tap
// once, samples I1, gx and gy with it, forms the residual and writes v.  It
// shares its per-pixel arithmetic (outer_step.cpp) with the serial functions
// of warp.hpp and threshold.hpp, and is bit-identical to them at any lane
// count.
#pragma once

#include <functional>
#include <utility>

#include "common/image.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::tvl1 {

/// The fused outer step at linearization point u0 == u: v is
/// threshold_step() of warp_with_gradients(i1, u), with `g1` = gradients(i1),
/// which the loop computes once per level.  Rows run in bands on `lanes`
/// lanes of `pool` (1 lane: inline on the caller, without the pool).  `v` is
/// resized to i0's shape only when it differs, so a buffer reused across
/// warps is not reallocated.
/// Throws std::invalid_argument when any plane of i1, g1 or u differs in
/// shape from i0, or lambda/theta is not positive.
void outer_step(const Image& i0, const Image& i1, const Gradients& g1,
                const FlowField& u, float lambda, float theta, FlowField& v,
                parallel::ThreadPool& pool, int lanes);

/// Intensities scaled from [0, 255] to [0, 1], as the pipelines take them.
[[nodiscard]] Image normalize(const Image& img);

/// The normalized pyramids of a frame pair.  They are independent, so they
/// build concurrently on two lanes of params.tiled.pool (else the default
/// pool): resident workers, since frame-rate host work must not spawn
/// threads.
[[nodiscard]] std::pair<Pyramid, Pyramid> normalized_pyramids(
    const Image& i0, const Image& i1, const Tvl1Params& params);

/// The coarse-to-fine loop shared by compute_flow, compute_flow_accelerated
/// and run_video: per level, upsample u and compute I1's gradients once;
/// per warp, the fused outer step, solve(v, u, level, warp) — which replaces
/// both components of u from the support field v — and the optional median
/// filter.  The outer steps run on params.tiled.pool (else the default pool)
/// with the tiled lane request for kTiled/kResident, and on one lane for the
/// sequential kReference/kFixed.
[[nodiscard]] FlowField coarse_to_fine(
    const Pyramid& p0, const Pyramid& p1, const Tvl1Params& params,
    const std::function<void(const FlowField&, FlowField&, int, int)>& solve);

}  // namespace chambolle::tvl1
