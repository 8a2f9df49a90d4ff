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

// One Chambolle solve of a single component through the selected backend.
// `out` receives the primal result; `scratch` persists across warps so the
// reference path reuses its dual-field and output buffers instead of
// allocating per frame (solve_into + the preallocated recover_u_into path).
// `resident` is the component's persistent resident-tile engine (kResident
// only): tile buffers survive across warps of a level, so the steady state
// re-streams only v; it is rebuilt when the pyramid level changes shape.
// Returns the inner-iteration count this solve contributed to the stats:
// the fixed budget, or (resident) the tile-average iterations actually
// executed.
long long inner_solve(const Matrix<float>& v, const Tvl1Params& params,
                      Matrix<float>& out, ChambolleResult& scratch,
                      std::unique_ptr<ResidentTiledEngine>& resident) {
  switch (params.solver) {
    case InnerSolver::kReference:
      solve_into(v, params.chambolle, scratch);
      // Hand the result out and keep the previous output buffer (same shape
      // at this pyramid level) as next warp's recover_u_into destination.
      std::swap(out, scratch.u);
      return params.chambolle.iterations;
    case InnerSolver::kTiled:
      out = solve_tiled(v, params.chambolle, params.tiled).u;
      return params.chambolle.iterations;
    case InnerSolver::kResident: {
      if (resident == nullptr || resident->rows() != v.rows() ||
          resident->cols() != v.cols()) {
        resident = std::make_unique<ResidentTiledEngine>(v, params.chambolle,
                                                         params.tiled);
      } else {
        resident->reset_v(v);
        if (!params.warm_start_duals) resident->reset_duals();
      }
      const RunReport rep =
          resident->run(params.chambolle.iterations, params.resident_policy);
      ChambolleResult r = resident->result();
      std::swap(out, r.u);
      // Tile-average of the iterations actually executed (the fixed budget
      // unless tiles retired); total_iterations already discounts the
      // truncated final pass, unlike passes * merge_iterations.
      return rep.tiles > 0 ? static_cast<long long>(rep.total_iterations) /
                                 static_cast<long long>(rep.tiles)
                           : 0;
    }
    case InnerSolver::kFixed: {
      // The 13-bit Q5.8 v-format spans [-16,16); flow components at any
      // pyramid level stay well inside it for the supported image sizes.
      out = solve_fixed(v, params.chambolle).u;
      return params.chambolle.iterations;
    }
  }
  throw std::logic_error("inner_solve: unknown solver");
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
  // kResident: one persistent engine per flow component; tile buffers stay
  // resident across warps (rebuilt only when the level changes shape).
  std::unique_ptr<ResidentTiledEngine> resident_u1, resident_u2;

  total_clock.lap();  // the pyramid builds are neither phase
  FlowField u = coarse_to_fine(
      p0, p1, params, [&](const FlowField& v, FlowField& out, int, int) {
        outer_seconds += total_clock.lap();
        inner_iters +=
            inner_solve(v.u1, params, out.u1, inner_scratch, resident_u1);
        inner_iters +=
            inner_solve(v.u2, params, out.u2, inner_scratch, resident_u2);
        chambolle_seconds += total_clock.lap();
      });

  if (stats != nullptr) {
    stats->total_seconds = total_clock.seconds();
    stats->chambolle_seconds = chambolle_seconds;
    stats->outer_seconds = outer_seconds;
    stats->chambolle_inner_iterations = inner_iters;
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
