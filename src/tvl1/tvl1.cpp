#include "tvl1/tvl1.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "chambolle/fixed_solver.hpp"
#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "common/stopwatch.hpp"
#include "common/validation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/outer_step.hpp"
#include "tvl1/pyramid.hpp"

namespace chambolle::tvl1 {
namespace {

// The inner solve of one warp: both components of u from v, into `out`.
// kResident runs the components as the two planes of one engine, in one
// run; the engine persists across the warps of a level, so the steady state
// re-streams only v, and is rebuilt when the level changes shape.  The other
// solvers take one component at a time; the reference path reuses
// `scratch`'s dual-field and output buffers (solve_into + recover_u_into),
// so it does not allocate per warp.  Returns the inner iterations for the
// stats: the fixed budget, or (resident) per component the tile-average of
// the iterations actually executed (total iterations already discount the
// truncated final pass, unlike passes * merge_iterations).
long long inner_solve(const FlowField& v, const Tvl1Params& params,
                      FlowField& out, ChambolleResult& scratch,
                      std::unique_ptr<ResidentTiledEngine>& engine) {
  if (params.solver == InnerSolver::kResident) {
    const Matrix<float>* in[] = {&v.u1, &v.u2};
    if (engine == nullptr || engine->rows() != v.u1.rows() ||
        engine->cols() != v.u1.cols())
      engine = std::make_unique<ResidentTiledEngine>(in, params.chambolle,
                                                     params.tiled);
    else
      engine->reset_v(in, /*zero_duals=*/!params.warm_start_duals);
    const RunReport rep =
        engine->run(params.chambolle.iterations, params.resident_policy);
    Matrix<float>* u[] = {&out.u1, &out.u2};
    engine->result_into(u);
    const std::size_t tiles = engine->plan().tiles.size();
    long long iterations = 0;
    for (const std::size_t it : rep.plane_iterations)
      iterations += static_cast<long long>(it / tiles);
    return iterations;
  }
  for (int k = 0; k < 2; ++k) {
    const Matrix<float>& vk = k == 0 ? v.u1 : v.u2;
    Matrix<float>& uk = k == 0 ? out.u1 : out.u2;
    if (params.solver == InnerSolver::kReference) {
      solve_into(vk, params.chambolle, scratch);
      // Hand the result out and keep the previous output buffer (same shape
      // at this level) as the next solve's recover_u_into target.
      std::swap(uk, scratch.u);
    } else if (params.solver == InnerSolver::kTiled) {
      uk = solve_tiled(vk, params.chambolle, params.tiled).u;
    } else {
      // kFixed.  The 13-bit Q5.8 v-format spans [-16,16); flow components
      // at any pyramid level stay well inside it for the supported sizes.
      uk = solve_fixed(vk, params.chambolle).u;
    }
  }
  return 2LL * params.chambolle.iterations;
}

// The coarse-to-fine loop shared by both compute_flow overloads.  The caller
// owns `total_clock` so the image overload's total keeps covering the pyramid
// builds (as it always did), while the pyramid overload's stats cover only
// the work it actually performs.  Laps split the rest: each warp's inner
// solve is Chambolle time, everything between solves is outer-step time.
FlowField flow_from_pyramids(const Pyramid& p0, const Pyramid& p1,
                             const Tvl1Params& params, Tvl1Stats* stats,
                             Stopwatch& total_clock) {
  const int levels = std::min(p0.levels(), p1.levels());
  double chambolle_seconds = 0.0, outer_seconds = 0.0;
  long long inner_iters = 0;
  // Reused across every warp of every level: the reference inner solver's
  // dual state and primal output land in these buffers, so the steady state
  // of the pyramid loop stops allocating fresh frames per warp.
  ChambolleResult inner_scratch;
  // kResident: one two-plane engine per level, kept across its warps.
  std::unique_ptr<ResidentTiledEngine> resident;
  int inner_runs = 0;

  total_clock.lap();  // the pyramid builds are neither phase
  FlowField u = coarse_to_fine(
      p0, p1, params, [&](const FlowField& v, FlowField& out, int, int) {
        outer_seconds += total_clock.lap();
        inner_iters += inner_solve(v, params, out, inner_scratch, resident);
        inner_runs += params.solver == InnerSolver::kResident ? 1 : 2;
        chambolle_seconds += total_clock.lap();
      });

  if (stats != nullptr) {
    stats->total_seconds = total_clock.seconds();
    stats->chambolle_seconds = chambolle_seconds;
    stats->outer_seconds = outer_seconds;
    stats->chambolle_inner_iterations = inner_iters;
    stats->inner_runs = inner_runs;
    stats->levels_processed = levels;
  }
  static telemetry::Counter& c_flows =
      telemetry::registry().counter("tvl1.flows");
  static telemetry::Counter& c_warps =
      telemetry::registry().counter("tvl1.warps");
  static telemetry::Counter& c_levels =
      telemetry::registry().counter("tvl1.levels");
  c_flows.add(1);
  c_warps.add(static_cast<std::uint64_t>(levels) *
              static_cast<std::uint64_t>(params.warps));
  c_levels.add(static_cast<std::uint64_t>(levels));
  return u;
}

}  // namespace

void Tvl1Params::validate() const {
  // NaN passes every <= comparison; screen it explicitly (see
  // ChambolleParams::validate).
  if (!std::isfinite(lambda))
    throw std::invalid_argument("Tvl1Params: non-finite lambda");
  if (lambda <= 0.f) throw std::invalid_argument("Tvl1Params: lambda <= 0");
  if (pyramid_levels < 1)
    throw std::invalid_argument("Tvl1Params: pyramid_levels < 1");
  if (warps < 1) throw std::invalid_argument("Tvl1Params: warps < 1");
  chambolle.validate();
  if (solver == InnerSolver::kTiled || solver == InnerSolver::kResident)
    tiled.validate();
  if (resident_policy.retire && solver != InnerSolver::kResident)
    throw std::invalid_argument(
        "Tvl1Params: a retirement policy requires the resident solver");
  resident_policy.validate();
}

FlowField compute_flow(const Image& i0, const Image& i1,
                       const Tvl1Params& params, Tvl1Stats* stats) {
  params.validate();
  if (!i0.same_shape(i1))
    throw std::invalid_argument("compute_flow: frame shape mismatch");
  if (i0.rows() < 2 || i0.cols() < 2)
    throw std::invalid_argument("compute_flow: frames must be at least 2x2");
  require_finite(i0, "compute_flow: frame0");
  require_finite(i1, "compute_flow: frame1");

  const telemetry::TraceSpan flow_span("tvl1.compute_flow");
  Stopwatch total_clock;
  const auto [p0, p1] = normalized_pyramids(i0, i1, params);
  return flow_from_pyramids(p0, p1, params, stats, total_clock);
}

FlowField compute_flow(const Pyramid& p0, const Pyramid& p1,
                       const Tvl1Params& params, Tvl1Stats* stats) {
  params.validate();
  if (p0.levels() < 1 || p1.levels() < 1)
    throw std::invalid_argument("compute_flow: empty pyramid");
  if (!p0.level(0).same_shape(p1.level(0)))
    throw std::invalid_argument("compute_flow: pyramid base shape mismatch");

  const telemetry::TraceSpan flow_span("tvl1.compute_flow");
  Stopwatch total_clock;
  return flow_from_pyramids(p0, p1, params, stats, total_clock);
}

FlowSession::FlowSession(const Tvl1Params& params) : params_(params) {
  params_.validate();
}

std::optional<FlowField> FlowSession::push_frame(const Image& frame,
                                                Tvl1Stats* stats) {
  if (frame.rows() < 2 || frame.cols() < 2)
    throw std::invalid_argument("FlowSession: frames must be at least 2x2");
  require_finite(frame, "FlowSession: frame");
  if (prev_.has_value() && !frame.same_shape(prev_->level(0)))
    throw std::invalid_argument(
        "FlowSession: frame shape changed mid-session (reset() first)");

  Pyramid pyr = [&] {
    const telemetry::TraceSpan span("tvl1.pyramid");
    return Pyramid(normalize(frame), params_.pyramid_levels);
  }();
  if (!prev_.has_value()) {
    prev_.emplace(std::move(pyr));
    frames_ = 1;
    if (stats != nullptr) *stats = Tvl1Stats{};
    return std::nullopt;
  }
  FlowField flow = compute_flow(*prev_, pyr, params_, stats);
  prev_.emplace(std::move(pyr));
  ++frames_;
  return flow;
}

void FlowSession::reset() {
  prev_.reset();
  frames_ = 0;
}

}  // namespace chambolle::tvl1
