#include "chambolle/resident_tiled.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "chambolle/multilevel.hpp"
#include "common/stopwatch.hpp"
#include "common/validation.hpp"
#include "kernels/kernel.hpp"
#include "kernels/strips.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace chambolle {

/// The resident working set of one tile: the (px, py) dual window and the
/// fixed input window, allocated once and owned by one lane for the whole
/// solve.  ~tile_rows * tile_cols * 12 B — sized to stay cache-resident
/// (the paper's 88 x 92 window is ~97 KiB), the CPU analogue of a BRAM bank.
struct ResidentTiledEngine::TileBuffers {
  Matrix<float> px, py, v;
};

/// One directed halo-exchange edge of one plane, with the frame rectangle
/// pre-resolved into source- and destination-local coordinates and a
/// parity-double-buffered payload: slot[n & 1] carries the pass-n strip (px
/// rows first, then py rows).  Publication/consumption is ordered by the
/// EpochGraph's release/acquire epoch protocol; the skew bound (neighbors
/// never more than one pass apart) keeps the two slots from colliding.  A
/// tile retired by a retirement policy stops publishing: gathers are
/// redirected to its final strips by the frozen_pass_ marker (see
/// gather_halos / mark_frozen).
struct ResidentTiledEngine::Mailbox {
  HaloEdge edge;
  std::size_t src_node = 0;    // edge.src's node in this edge's plane
  int src_r0 = 0, src_c0 = 0;  // edge rect in src-buffer coordinates
  int dst_r0 = 0, dst_c0 = 0;  // edge rect in dst-buffer coordinates
  std::vector<float> slot[2];
};

namespace {

/// Shape and finiteness screen of an engine input: v, and the warm-start
/// duals when given.  Runs before any state changes, so a NaN frame is
/// rejected without poisoning the resident duals a stream keeps warm.
void validate_inputs(const Matrix<float>& v, const DualField* initial,
                     const std::string& who) {
  require_finite(v, who + ": v");
  if (initial == nullptr) return;
  if (!initial->px.same_shape(v) || !initial->py.same_shape(v))
    throw std::invalid_argument(who + ": initial dual shape mismatch");
  require_finite(initial->px, who + ": initial px");
  require_finite(initial->py, who + ": initial py");
}

/// The per-plane screen of the K-plane forms: one non-null, finite field
/// per plane, all shaped rows x cols.
void validate_planes(std::span<const Matrix<float>* const> v,
                     std::size_t planes, int rows, int cols,
                     const std::string& who) {
  if (v.size() != planes)
    throw std::invalid_argument(who + ": need one field per plane");
  for (const Matrix<float>* m : v) {
    if (m == nullptr) throw std::invalid_argument(who + ": null plane");
    if (m->rows() != rows || m->cols() != cols)
      throw std::invalid_argument(who + ": plane shape mismatch");
    validate_inputs(*m, nullptr, who);
  }
}

/// max |m| over the frame rectangle [r0, r0+rows) x [c0, c0+cols).
float max_abs_rect(const Matrix<float>& m, int r0, int c0, int rows,
                   int cols) {
  float best = 0.f;
  for (int r = 0; r < rows; ++r) {
    const float* p = &m(r0 + r, c0);
    for (int c = 0; c < cols; ++c) best = std::max(best, std::fabs(p[c]));
  }
  return best;
}

}  // namespace

ResidentTiledEngine::ResidentTiledEngine(const Matrix<float>& v,
                                         const ChambolleParams& params,
                                         const TiledSolverOptions& options,
                                         const DualField* initial)
    : params_(params), options_(options) {
  params_.validate();
  options_.validate();
  validate_inputs(v, initial, "ResidentTiledEngine");
  build(v.rows(), v.cols());
  const Matrix<float>* planes[] = {&v};
  fill(planes, initial != nullptr ? Duals::kLoad : Duals::kKeep, initial);
}

ResidentTiledEngine::ResidentTiledEngine(
    std::span<const Matrix<float>* const> planes,
    const ChambolleParams& params, const TiledSolverOptions& options)
    : params_(params),
      options_(options),
      planes_(static_cast<int>(planes.size())) {
  params_.validate();
  options_.validate();
  if (planes.empty() || planes.front() == nullptr)
    throw std::invalid_argument("ResidentTiledEngine: no planes");
  validate_planes(planes, planes.size(), planes.front()->rows(),
                  planes.front()->cols(), "ResidentTiledEngine");
  build(planes.front()->rows(), planes.front()->cols());
  fill(planes, Duals::kKeep, nullptr);
}

void ResidentTiledEngine::build(int rows, int cols) {
  plan_ = make_tiling(rows, cols, options_.tile_rows, options_.tile_cols,
                      options_.merge_iterations);
  const std::size_t per_plane = plan_.tiles.size();
  const std::size_t n = static_cast<std::size_t>(planes_) * per_plane;

  // resize() value-initializes: the zero dual start of Algorithm 1.
  tiles_.resize(n);
  for (std::size_t node = 0; node < n; ++node) {
    const TileSpec& t = plan_.tiles[node % per_plane];
    TileBuffers& b = tiles_[node];
    b.v.resize(t.buf_rows, t.buf_cols);
    b.px.resize(t.buf_rows, t.buf_cols);
    b.py.resize(t.buf_rows, t.buf_cols);
  }

  // Every plane gets its own copy of the frame's edges; nodes and mailboxes
  // are plane-major, and no edge crosses planes.
  const std::vector<HaloEdge> edges = make_halo_edges(plan_);
  mail_.reserve(static_cast<std::size_t>(planes_) * edges.size());
  in_edges_.assign(n, {});
  out_edges_.assign(n, {});
  std::vector<std::vector<int>> adjacency(n);
  for (std::size_t first = 0; first < n; first += per_plane) {
    for (const HaloEdge& e : edges) {
      Mailbox m;
      m.edge = e;
      m.src_node = first + static_cast<std::size_t>(e.src);
      const TileSpec& s = plan_.tiles[static_cast<std::size_t>(e.src)];
      const TileSpec& d = plan_.tiles[static_cast<std::size_t>(e.dst)];
      m.src_r0 = e.row0 - s.buf_row0;
      m.src_c0 = e.col0 - s.buf_col0;
      m.dst_r0 = e.row0 - d.buf_row0;
      m.dst_c0 = e.col0 - d.buf_col0;
      m.slot[0].resize(2 * e.elements());
      m.slot[1].resize(2 * e.elements());
      const int idx = static_cast<int>(mail_.size());
      mail_.push_back(std::move(m));
      const std::size_t src = first + static_cast<std::size_t>(e.src);
      const std::size_t dst = first + static_cast<std::size_t>(e.dst);
      out_edges_[src].push_back(idx);
      in_edges_[dst].push_back(idx);
      adjacency[src].push_back(static_cast<int>(dst));
    }
  }
  // The halo-edge relation is symmetric (tile_test asserts it), so the
  // published adjacency doubles as the wait set: a tile waits exactly on
  // the tiles it exchanges strips with.
  graph_ = std::make_unique<parallel::EpochGraph>(std::move(adjacency));

  frozen_pass_ = std::vector<std::atomic<int>>(n);
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  stats_.tiles = n;
  stats_.halo_elements_per_pass =
      static_cast<std::size_t>(planes_) * halo_exchange_elements(edges);
}

ResidentTiledEngine::~ResidentTiledEngine() = default;

void RetirementRule::validate() const {
  if (!(tolerance > 0.f) || !std::isfinite(tolerance))
    throw std::invalid_argument(
        "RetirementRule: tolerance must be finite and > 0");
  if (patience < 1)
    throw std::invalid_argument("RetirementRule: patience < 1");
}

void RunPolicy::validate() const {
  if (retire) retire->validate();
  multilevel.validate();
  if (multilevel.enabled() && !retire)
    throw std::invalid_argument(
        "RunPolicy: the multilevel correction requires a retirement rule");
}

void ResidentTiledEngine::gather_halos(std::size_t node, int g) {
  // The incoming rectangles partition the halo exactly, so after this loop
  // the whole buffer holds the neighbors' post-pass-(g-1) state.
  TileBuffers& b = tiles_[node];
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : in_edges_[node]) {
    const Mailbox& m = mail_[static_cast<std::size_t>(mi)];
    // A live neighbor's post-pass-(g-1) strips sit at parity (g-1).  A
    // neighbor retired at pass f stopped publishing: its final strips sit at
    // parity f, so read that slot once f < g-1.  Visibility: the marker is
    // stored before the terminal epoch's release store, and acquiring that
    // epoch in the scheduler's ready check is the only way this tile can
    // reach pass g > f + 1, so whenever the frozen slot is the one that
    // matters the load below is guaranteed to observe f.  While f >= g-1
    // (the neighbor's retirement pass may still be racing this gather)
    // min() keeps the normal parity, whose strips the neighbor published
    // before our pass became ready — so the slot actually read, and hence
    // the numeric result, is schedule-independent.
    int src_pass = g - 1;
    const int f = frozen_pass_[m.src_node].load(std::memory_order_acquire);
    if (f >= 0) src_pass = std::min(src_pass, f);
    const float* strip = m.slot[src_pass & 1].data();
    kernels::scatter_rect(strip, b.px, m.dst_r0, m.dst_c0, m.edge.rows,
                          m.edge.cols);
    kernels::scatter_rect(strip + m.edge.elements(), b.py, m.dst_r0, m.dst_c0,
                          m.edge.rows, m.edge.cols);
  }
}

void ResidentTiledEngine::publish_strips(std::size_t node, int g) {
  // Profitable cells only, hence exact.  Publishing on the final pass too
  // keeps the mailboxes coherent for a later run() on the resident state.
  TileBuffers& b = tiles_[node];
  const telemetry::ProfScope prof(telemetry::LaneCause::kMailbox);
  for (const int mi : out_edges_[node]) {
    Mailbox& m = mail_[static_cast<std::size_t>(mi)];
    float* strip = m.slot[g & 1].data();
    kernels::gather_rect(b.px, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip);
    kernels::gather_rect(b.py, m.src_r0, m.src_c0, m.edge.rows, m.edge.cols,
                         strip + m.edge.elements());
  }
}

void ResidentTiledEngine::mark_frozen(std::size_t node, int g) {
  // A retired tile never publishes again; the marker redirects every later
  // gather to the parity-g slot holding its final strips (see gather_halos).
  // Writing the OTHER parity slot here instead would be a data race: a
  // neighbor concurrently executing the same pass g reads
  // slot[(g - 1) & 1] == slot[(g + 1) & 1], and the epoch protocol only
  // guarantees that reader our epoch >= g — which already holds while we
  // run pass g, so no release/acquire pair orders such a copy against its
  // gather.  The cross-parity mirror is deferred to run()'s
  // epilogue, when every lane has joined and no reader can exist.
  frozen_pass_[node].store(g, std::memory_order_release);
}

parallel::ThreadPool& ResidentTiledEngine::pool() const {
  return options_.pool != nullptr ? *options_.pool : parallel::default_pool();
}

int ResidentTiledEngine::lanes() const {
  return std::max(1, std::min(pool().lanes_for(options_.num_threads),
                              static_cast<int>(tiles_.size())));
}

template <class Fn>
void ResidentTiledEngine::for_nodes(std::size_t first, std::size_t count,
                                    const Fn& fn) const {
  const int n = static_cast<int>(count);
  const int team = std::min(lanes(), n);
  if (team <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(first + i, 0);
    return;
  }
  pool().run_team(team, [&](int lane, int nlanes, parallel::Barrier&) {
    const int end = parallel::EpochGraph::block_begin(n, nlanes, lane + 1);
    for (int i = parallel::EpochGraph::block_begin(n, nlanes, lane); i < end;
         ++i)
      fn(first + static_cast<std::size_t>(i), lane);
  });
}

void ResidentTiledEngine::require_single_plane(const char* who) const {
  if (planes_ != 1)
    throw std::logic_error(std::string("ResidentTiledEngine::") + who +
                           ": single-plane form on a " +
                           std::to_string(planes_) + "-plane engine");
}

void ResidentTiledEngine::fill(std::span<const Matrix<float>* const> v,
                               Duals duals, const DualField* initial) {
  const std::size_t per_plane = plan_.tiles.size();
  for_nodes(0, tiles_.size(), [&](std::size_t node, int) {
    const TileSpec& t = plan_.tiles[node % per_plane];
    TileBuffers& b = tiles_[node];
    if (!v.empty())
      kernels::copy_rect(*v[node / per_plane], t.buf_row0, t.buf_col0, b.v, 0,
                         0, t.buf_rows, t.buf_cols);
    switch (duals) {
      case Duals::kKeep:
        break;
      case Duals::kZero:
        b.px.fill(0.f);
        b.py.fill(0.f);
        break;
      case Duals::kLoad:
        kernels::copy_rect(initial->px, t.buf_row0, t.buf_col0, b.px, 0, 0,
                           t.buf_rows, t.buf_cols);
        kernels::copy_rect(initial->py, t.buf_row0, t.buf_col0, b.py, 0, 0,
                           t.buf_rows, t.buf_cols);
        break;
    }
  });
  if (duals == Duals::kKeep) return;
  // A full buffer load (halo included) makes the mailboxes irrelevant until
  // the next publish; restart the pass/parity clock.  Frozen-pass markers
  // must go with it: a completed run clears them in its epilogue,
  // but a run aborted by a body exception leaves them set, and a marker
  // surviving into the next solve would redirect gathers to a stale frozen
  // strip of the PREVIOUS stream — the engine-reuse leak a pooled fleet
  // engine must never serve session B from session A's retirement state.
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);
  pass_count_ = 0;
}

void ResidentTiledEngine::reset_v(const Matrix<float>& v,
                                  const DualField* initial) {
  require_single_plane("reset_v");
  if (v.rows() != rows() || v.cols() != cols())
    throw std::invalid_argument("ResidentTiledEngine::reset_v: shape mismatch");
  validate_inputs(v, initial, "ResidentTiledEngine::reset_v");
  // initial == nullptr: duals stay resident (warm start); the mailbox
  // parity clock keeps running so the next run() gathers valid halos.
  const Matrix<float>* planes[] = {&v};
  fill(planes, initial != nullptr ? Duals::kLoad : Duals::kKeep, initial);
}

void ResidentTiledEngine::reset_v(std::span<const Matrix<float>* const> v,
                                  bool zero_duals) {
  validate_planes(v, static_cast<std::size_t>(planes_), rows(), cols(),
                  "ResidentTiledEngine::reset_v");
  fill(v, zero_duals ? Duals::kZero : Duals::kKeep, nullptr);
}

void ResidentTiledEngine::reset_duals() { fill({}, Duals::kZero, nullptr); }

RunReport ResidentTiledEngine::run(int iterations, const RunPolicy& policy) {
  if (iterations < 0)
    throw std::invalid_argument("ResidentTiledEngine::run: iterations < 0");
  policy.validate();
  const std::size_t n = tiles_.size();
  const std::size_t per_plane = plan_.tiles.size();
  const std::size_t planes = static_cast<std::size_t>(planes_);
  RunReport report;
  report.planes = planes_;
  report.tiles = n;
  report.tile_passes.assign(n, 0);
  report.tile_residuals.assign(n, 0.f);
  report.plane_iterations.assign(planes, 0);
  if (iterations == 0) return report;
  const telemetry::TraceSpan span("chambolle.resident.run");
  telemetry::flight_mark("resident.run", static_cast<double>(iterations));

  // Pass schedule: merge_iterations per pass, the remainder last.  Every
  // burst is <= plan_.halo, which is what keeps profitable cells'
  // dependency cones inside the buffer.
  const int merge = options_.merge_iterations;
  const int passes = (iterations + merge - 1) / merge;
  const int last_burst = iterations - (passes - 1) * merge;
  report.pass_cap = passes;

  // A completed run clears the frozen-pass markers in its epilogue, but an
  // exception-aborted one leaves them set — and a stale marker would
  // redirect this run's gathers to a long-dead frozen slot.
  for (std::atomic<int>& f : frozen_pass_)
    f.store(-1, std::memory_order_relaxed);

  const RetirementRule* retire = policy.retire ? &*policy.retire : nullptr;
  // Consecutive under-tolerance passes per tile.  Only the claiming lane for
  // a (tile, pass) touches a tile's entries here, and claims of successive
  // passes are ordered by the epoch release/acquire chain, so plain ints are
  // safe even under work stealing.
  std::vector<int> streak(n, 0);
  std::vector<std::size_t> tile_iterations(n, 0);

  // The coarse correction runs only when at least one firing is realizable
  // (a boundary strictly inside the cap) on a frame that can coarsen.  Each
  // plane has its own corrector; every buffer it needs is allocated here,
  // on the calling thread.
  const int period = policy.multilevel.period;
  const bool correct =
      retire != nullptr && period > 0 && (passes - 1) / period > 0 &&
      CoarseCorrector::resolve_levels(plan_.frame_rows, plan_.frame_cols,
                                      policy.multilevel) > 0;
  std::vector<CoarseCorrector> correctors(correct ? planes : 0);
  DualField snap;
  if (correct) {
    for (std::size_t k = 0; k < planes; ++k)
      correctors[k].setup(frame_v(static_cast<int>(k)), params_,
                          policy.multilevel);
    report.coarse_levels = correctors.front().levels();
    snap.px.resize(plan_.frame_rows, plan_.frame_cols);
    snap.py.resize(plan_.frame_rows, plan_.frame_cols);
  }
  // Per plane, the boundary whose rendezvous actually applied a correction
  // (-1 = none): written inside the exclusive window before the scheduler's
  // releasing rendezvous-epoch store, read by boundary-pass bodies after its
  // acquire — so plain ints are race-free.  Bodies at a boundary whose
  // firing was declined by the progress gate must NOT fold in the (stale)
  // delta buffers.
  std::vector<int> applied_boundary(planes, -1);
  // Planes that left a firing with every tile retired and none resurrected.
  // A single-plane run stops firing there (EpochGraph ends a run whose
  // fleet is finished), so such a plane takes no further firings while the
  // other planes go on — each plane sees exactly its single-plane firings.
  std::vector<char> plane_done(planes, 0);
  std::vector<float> plane_correction_max(planes, 0.f);

  const int base = pass_count_;
  const float inv_theta = 1.f / params_.theta;
  const float step = params_.step();
  const int lanes = this->lanes();
  parallel::PerLane<Matrix<float>> scratch(lanes);

  // Folds the last computed correction of the node's plane into the node's
  // WHOLE buffer (profitable + halo): the delta is globally consistent, so
  // overlapping buffer cells of different tiles receive identical values.
  // No projection here — the corrector's delta is corrected-feasible minus
  // snapshot, so a plain add lands on the projected state.
  const auto apply_delta = [&](std::size_t node) {
    const TileSpec& t = plan_.tiles[node % per_plane];
    TileBuffers& b = tiles_[node];
    const CoarseCorrector& corrector = correctors[node / per_plane];
    const Matrix<float>& dx = corrector.delta_px();
    const Matrix<float>& dy = corrector.delta_py();
    for (int r = 0; r < t.buf_rows; ++r) {
      const float* sx = &dx(t.buf_row0 + r, t.buf_col0);
      const float* sy = &dy(t.buf_row0 + r, t.buf_col0);
      float* px = &b.px(r, 0);
      float* py = &b.py(r, 0);
      for (int c = 0; c < t.buf_cols; ++c) {
        px[c] += sx[c];
        py[c] += sy[c];
      }
    }
  };

  const auto body = [&](int node_index, int epoch, int lane) -> bool {
    const std::size_t node = static_cast<std::size_t>(node_index);
    const TileSpec& t = plan_.tiles[node % per_plane];
    TileBuffers& b = tiles_[node];
    const int g = base + epoch;  // global pass index since the last reload
    // A run starts from an exact buffer (loaded, or refreshed by the
    // previous run's epilogue), so only later passes gather.
    if (epoch > 0) gather_halos(node, g);
    // At a correction boundary, fold the rendezvous delta in AFTER the
    // gather: the gathered strips are pre-correction (live neighbors are
    // parked at the same boundary; a frozen neighbor's strips were re-
    // published from its pre-correction buffer by the rendezvous), so
    // adding the delta over the whole buffer lands every cell — profitable
    // and halo alike — on the corrected state exactly once.
    if (epoch > 0 && epoch == applied_boundary[node / per_plane])
      apply_delta(node);
    const RegionGeometry geom{t.buf_row0, t.buf_col0, plan_.frame_rows,
                              plan_.frame_cols};
    const int burst = epoch == passes - 1 ? last_burst : merge;
    float residual = 0.f;
    {
      // Timed by hand (not ProfScope) because the per-tile attribution needs
      // the same measurement twice; no clock is read without a session.
      const bool prof = telemetry::profiler_active();
      const std::uint64_t k0 = prof ? telemetry::detail::trace_now_ns() : 0;
      kernels::iterate_region_fused(b.px, b.py, b.v, geom, inv_theta, step,
                                    burst, scratch[lane],
                                    retire != nullptr ? &residual : nullptr);
      if (prof) {
        const double kernel_seconds =
            static_cast<double>(telemetry::detail::trace_now_ns() - k0) * 1e-9;
        telemetry::profiler_add(telemetry::LaneCause::kKernel, kernel_seconds);
        telemetry::profiler_add_tile(node_index, kernel_seconds);
      }
    }
    publish_strips(node, g);
    ++report.tile_passes[node];
    tile_iterations[node] += static_cast<std::size_t>(burst);
    if (retire == nullptr) return false;
    report.tile_residuals[node] = residual;
    // The residual is the buffer-wide max |dp| of the pass's LAST iteration:
    // the same single-iteration semantics as solve_adaptive, so the same
    // tolerance means the same thing regardless of merge depth.  Halo cells
    // are included — conservative: a tile only retires once its neighborhood
    // influence has also stilled.
    if (residual < retire->tolerance) {
      if (++streak[node] >= retire->patience) {
        mark_frozen(node, g);
        return true;  // retire: EpochGraph publishes the terminal epoch
      }
    } else {
      streak[node] = 0;
    }
    return false;
  };

  // The rendezvous body: runs in the scheduler's exclusive window (every
  // live tile parked exactly at the boundary, every other tile retired), so
  // it may touch any tile buffer and any mailbox slot without racing a
  // reader — see EpochGraph::run.  Planes are corrected one after another;
  // nothing of one plane's correction depends on another plane.
  const auto rendezvous = [&](int /*firing*/,
                              parallel::EpochGraph::RendezvousControl& ctl) {
    const Stopwatch clock;
    const int boundary = ctl.boundary();  // epoch of the next fine pass
    const int gb = base + boundary;       // its global pass index (parity)
    const float unretire_tol =
        policy.multilevel.unretire_factor * retire->tolerance;
    for (std::size_t k = 0; k < planes; ++k) {
      if (plane_done[k]) continue;
      const std::size_t first = k * per_plane;
      const std::size_t last = first + per_plane;
      // Step 0: re-sync each still-frozen tile's published strips from its
      // buffer (parity = its frozen pass, where its readers look).  Earlier
      // corrections were absorbed into the buffer but could not be published
      // mid-run; this bounds a frozen tile's publish drift to at most ONE
      // correction, never an accumulation.
      for (std::size_t i = first; i < last; ++i) {
        const int f = frozen_pass_[i].load(std::memory_order_relaxed);
        if (f >= 0) publish_strips(i, f);
      }
      // Step 1+2: assemble the plane's fine dual state and run the gated
      // V-cycle.  The gate's residual is the max over the plane's tiles of
      // the last pass's buffer-wide |dp| — every live tile is parked at the
      // boundary, so each entry is that tile's pass (boundary - 1) value;
      // frozen tiles contribute their (sub-tolerance) retirement-time
      // residual.
      float churn = 0.f;
      for (std::size_t i = first; i < last; ++i) {
        churn = std::max(churn, report.tile_residuals[i]);
        write_back(i, snap);
      }
      const CoarseCorrector::Result res =
          correctors[k].compute(snap.px, snap.py, churn);
      bool resurrected = false;
      if (!res.applied) {
        // Baseline call, gate declined, or the energy safeguard vetoed the
        // cycle's output: no delta exists, so boundary-pass bodies must not
        // apply one and frozen tiles stay untouched.
        applied_boundary[k] = -1;
        ++report.coarse_gated;
      } else {
        applied_boundary[k] = boundary;
        ++report.coarse_solves;
        plane_correction_max[k] = res.max_delta;
        // Step 3: retired tiles don't run a boundary pass, so they take the
        // correction here — in place if it is below the un-retirement bar,
        // by resurrection otherwise.
        for (std::size_t i = first; i < last; ++i) {
          const int f = frozen_pass_[i].load(std::memory_order_relaxed);
          if (f < 0) continue;
          const TileSpec& t = plan_.tiles[i - first];
          const float local = std::max(
              max_abs_rect(correctors[k].delta_px(), t.prof_row0, t.prof_col0,
                           t.prof_rows, t.prof_cols),
              max_abs_rect(correctors[k].delta_py(), t.prof_row0, t.prof_col0,
                           t.prof_rows, t.prof_cols));
          if (local > unretire_tol) {
            // Resurrect: publish the PRE-correction strips at the live
            // parity the boundary-pass gathers read, clear the frozen
            // marker, and rewind the node.  The tile's own boundary pass
            // then applies the delta exactly like every live tile — no
            // special casing, no double application.
            publish_strips(i, gb - 1);
            frozen_pass_[i].store(-1, std::memory_order_relaxed);
            streak[i] = 0;
            ctl.resurrect(static_cast<int>(i));
            resurrected = true;
            ++report.tiles_unretired;
          } else {
            // Stay frozen: fold the correction into the frozen buffer.  Its
            // published strips intentionally stay pre-correction until the
            // next step-0 re-sync (or the epilogue): readers between
            // boundaries see a drift of at most this one delta, itself
            // bounded by unretire_tol — the same deviation class the
            // adaptive tolerance mode already admits.
            apply_delta(i);
          }
        }
      }
      if (!resurrected &&
          std::all_of(frozen_pass_.begin() + static_cast<long>(first),
                      frozen_pass_.begin() + static_cast<long>(last),
                      [](const std::atomic<int>& f) {
                        return f.load(std::memory_order_relaxed) >= 0;
                      }))
        plane_done[k] = 1;
    }
    report.rendezvous_seconds += clock.seconds();
  };

  const parallel::EpochGraph::Rendezvous rv{period, rendezvous};
  const parallel::EpochGraph::RunStats rs =
      graph_->run(passes, lanes, pool(), body, correct ? &rv : nullptr);

  // Quiescent epilogue (every lane has joined): republish each retired
  // tile's final strips from its buffer — which may hold corrections
  // absorbed after its last publish — into BOTH parity slots and clear its
  // marker, so later runs, whose gathers assume the live parity, read the
  // frozen state no matter how many passes each tile actually executed.
  // This is exactly the write that would race a concurrent gather during
  // the run (see mark_frozen); here no reader exists.
  for (std::size_t i = 0; i < n; ++i) {
    if (frozen_pass_[i].load(std::memory_order_relaxed) < 0) continue;
    ++report.tiles_converged;
    publish_strips(i, 0);
    publish_strips(i, 1);
    frozen_pass_[i].store(-1, std::memory_order_relaxed);
  }
  // The parity clock advances by the full cap.
  pass_count_ += passes;
  // Refresh every halo ring from the final strips (both parities hold a
  // retired tile's), so the resident state is exact everywhere between
  // runs: the next run's first pass needs no gather, and write-back and
  // primal recovery are per-tile work on the buffers alone.
  for_nodes(0, n, [&](std::size_t node, int) {
    gather_halos(node, pass_count_);
  });
  report.last_correction_max = *std::max_element(
      plane_correction_max.begin(), plane_correction_max.end());

  // Accounting, one unit for every policy: executed tile-passes.
  report.total_tile_passes = rs.executed_passes;
  report.stolen_passes = rs.stolen_passes;
  stats_.passes += passes;
  stats_.stall_seconds += rs.stall_seconds;
  stats_.stall_spins += rs.stall_spins;
  std::uint64_t halo_floats = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t out_elems = 0;
    for (const int mi : out_edges_[i])
      out_elems += 2 * mail_[static_cast<std::size_t>(mi)].edge.elements();
    halo_floats += static_cast<std::uint64_t>(out_elems) *
                   static_cast<std::uint64_t>(report.tile_passes[i]);
    report.total_iterations += tile_iterations[i];
    report.plane_iterations[i / per_plane] += tile_iterations[i];
    stats_.element_iterations +=
        plan_.tiles[i % per_plane].buffer_elements() * tile_iterations[i];
  }
  stats_.halo_bytes_exchanged += halo_floats * sizeof(float);

  static telemetry::Counter& c_passes =
      telemetry::registry().counter("tiles.passes");
  static telemetry::Counter& c_halo =
      telemetry::registry().counter("tiles.halo_bytes");
  static telemetry::Counter& c_stall =
      telemetry::registry().counter("tiles.stall_micros");
  static telemetry::Counter& c_spins =
      telemetry::registry().counter("tiles.stall_spins");
  static telemetry::Counter& c_stolen =
      telemetry::registry().counter("tiles.stolen_passes");
  c_passes.add(rs.executed_passes);
  c_halo.add(halo_floats * sizeof(float));
  c_stall.add(static_cast<std::uint64_t>(rs.stall_seconds * 1e6));
  c_spins.add(rs.stall_spins);
  c_stolen.add(rs.stolen_passes);
  // Per-pass traffic of this engine vs. the reload engine's two full frames
  // in and out (4 floats/cell) per plane: the acceptance-criterion ratio.
  const double frame_reload_bytes =
      4.0 * sizeof(float) * static_cast<double>(planes) *
      static_cast<double>(plan_.frame_rows) *
      static_cast<double>(plan_.frame_cols);
  telemetry::registry()
      .gauge("tiles.halo_traffic_fraction")
      .set(frame_reload_bytes > 0.0
               ? static_cast<double>(stats_.halo_elements_per_pass) *
                     sizeof(float) / frame_reload_bytes
               : 0.0);
  if (retire != nullptr) {
    static telemetry::Counter& c_converged =
        telemetry::registry().counter("tiles.converged");
    static telemetry::Histogram& h_passes = telemetry::registry().histogram(
        "tiles.passes_used", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
    c_converged.add(report.tiles_converged);
    for (const int p : report.tile_passes) h_passes.observe(p);
    telemetry::registry()
        .gauge("tiles.adaptive_pass_savings")
        .set(report.pass_savings());
  }
  if (correct) {
    static telemetry::Counter& c_solves =
        telemetry::registry().counter("tiles.coarse_solves");
    static telemetry::Counter& c_gated =
        telemetry::registry().counter("tiles.coarse_gated");
    static telemetry::Counter& c_unretired =
        telemetry::registry().counter("tiles.coarse_unretired");
    static telemetry::Counter& c_rv_micros =
        telemetry::registry().counter("tiles.coarse_rendezvous_micros");
    c_solves.add(report.coarse_solves);
    c_gated.add(report.coarse_gated);
    c_unretired.add(report.tiles_unretired);
    c_rv_micros.add(
        static_cast<std::uint64_t>(report.rendezvous_seconds * 1e6));
    telemetry::registry()
        .gauge("tiles.coarse_correction_norm")
        .set(static_cast<double>(report.last_correction_max));
  }
  return report;
}

void ResidentTiledEngine::write_back(std::size_t node, DualField& out) const {
  const TileSpec& t = plan_.tiles[node % plan_.tiles.size()];
  const TileBuffers& b = tiles_[node];
  kernels::copy_rect(b.px, t.prof_row0 - t.buf_row0, t.prof_col0 - t.buf_col0,
                     out.px, t.prof_row0, t.prof_col0, t.prof_rows,
                     t.prof_cols);
  kernels::copy_rect(b.py, t.prof_row0 - t.buf_row0, t.prof_col0 - t.buf_col0,
                     out.py, t.prof_row0, t.prof_col0, t.prof_rows,
                     t.prof_cols);
}

Matrix<float> ResidentTiledEngine::frame_v(int plane) const {
  Matrix<float> v(plan_.frame_rows, plan_.frame_cols);
  const std::size_t per_plane = plan_.tiles.size();
  for (std::size_t i = 0; i < per_plane; ++i) {
    const TileSpec& t = plan_.tiles[i];
    const TileBuffers& b =
        tiles_[static_cast<std::size_t>(plane) * per_plane + i];
    kernels::copy_rect(b.v, t.prof_row0 - t.buf_row0, t.prof_col0 - t.buf_col0,
                       v, t.prof_row0, t.prof_col0, t.prof_rows, t.prof_cols);
  }
  return v;
}

void ResidentTiledEngine::snapshot(int plane, DualField& out) const {
  if (plane < 0 || plane >= planes_)
    throw std::invalid_argument("ResidentTiledEngine::snapshot: no such plane");
  // The profitable rectangles partition the frame, so every cell is
  // written: no need to clear a buffer that already has the shape.
  if (out.px.rows() != rows() || out.px.cols() != cols())
    out.px.resize(rows(), cols());
  if (out.py.rows() != rows() || out.py.cols() != cols())
    out.py.resize(rows(), cols());
  const std::size_t per_plane = plan_.tiles.size();
  for_nodes(static_cast<std::size_t>(plane) * per_plane, per_plane,
            [&](std::size_t node, int) { write_back(node, out); });
}

void ResidentTiledEngine::snapshot(DualField& out) const {
  require_single_plane("snapshot");
  snapshot(0, out);
}

void ResidentTiledEngine::result_into(
    std::span<Matrix<float>* const> u) const {
  if (u.size() != static_cast<std::size_t>(planes_))
    throw std::invalid_argument(
        "ResidentTiledEngine::result_into: need one output per plane");
  for (Matrix<float>* m : u) {
    if (m == nullptr)
      throw std::invalid_argument("ResidentTiledEngine::result_into: null");
    if (m->rows() != rows() || m->cols() != cols()) m->resize(rows(), cols());
  }
  // Each tile recovers its profitable rectangle from its own buffers, which
  // are exact everywhere between runs.  The swept row starts one halo column
  // left of the rectangle (unless it sits on the frame's left border): the
  // row primitive reads no west neighbor at its first cell, so that cell is
  // computed into lane scratch and dropped, and every kept cell sees exactly
  // the operands of the full-frame recover_u — bit-identical to it.
  const std::size_t per_plane = plan_.tiles.size();
  int widest = 0;
  for (const TileSpec& t : plan_.tiles) widest = std::max(widest, t.prof_cols);
  parallel::PerLane<std::vector<float>> rows_out(lanes());
  for (int l = 0; l < rows_out.lanes(); ++l)
    rows_out[l].resize(static_cast<std::size_t>(widest) + 1);
  const kernels::KernelOps& k = kernels::ops();
  const float theta = params_.theta;
  for_nodes(0, tiles_.size(), [&](std::size_t node, int lane) {
    const TileSpec& t = plan_.tiles[node % per_plane];
    const TileBuffers& b = tiles_[node];
    Matrix<float>& out = *u[node / per_plane];
    const int extra = t.prof_col0 > 0 ? 1 : 0;
    const int c0 = t.prof_col0 - t.buf_col0 - extra;  // buffer column
    float* row = rows_out[lane].data();
    kernels::RecoverRowArgs a{};
    a.cols = t.prof_cols + extra;
    a.theta = theta;
    a.at_left = t.prof_col0 == 0;
    a.at_right = t.prof_col0 + t.prof_cols == plan_.frame_cols;
    a.u = row;
    for (int r = t.prof_row0; r < t.prof_row0 + t.prof_rows; ++r) {
      const int br = r - t.buf_row0;
      a.px = &b.px(br, c0);
      a.py = &b.py(br, c0);
      a.py_up = r > 0 ? &b.py(br - 1, c0) : nullptr;
      a.v = &b.v(br, c0);
      a.at_top = r == 0;
      a.at_bottom = r == plan_.frame_rows - 1;
      k.recover_row(a);
      std::copy_n(row + extra, t.prof_cols, &out(r, t.prof_col0));
    }
  });
}

ChambolleResult ResidentTiledEngine::result() const {
  require_single_plane("result");
  ChambolleResult out;
  snapshot(0, out.p);
  Matrix<float>* u[] = {&out.u};
  result_into(u);
  return out;
}

ChambolleResult solve_resident(const Matrix<float>& v,
                               const ChambolleParams& params,
                               const TiledSolverOptions& options,
                               const RunPolicy& policy, RunReport* report,
                               ResidentTiledStats* stats,
                               const DualField* initial) {
  const telemetry::TraceSpan span("chambolle.solve_resident");
  ResidentTiledEngine engine(v, params, options, initial);
  const RunReport rep = engine.run(params.iterations, policy);
  static telemetry::Counter& c_solves =
      telemetry::registry().counter("tiles.resident_solves");
  c_solves.add(1);
  if (report != nullptr) *report = rep;
  if (stats != nullptr) *stats = engine.stats();
  return engine.result();
}

}  // namespace chambolle
