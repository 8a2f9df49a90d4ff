// resident_tiled.hpp — the resident-tile sliding-window engine.
//
// The pass-based tiled solver (tiled_solver.hpp) is the paper's scheme with
// the hardware's weakest property dropped: its BRAM windows stay loaded
// between iterations, but the CPU realization reloads every tile buffer from
// the global frame and writes it back on EVERY merged pass, synchronized by
// a global barrier — two full frames of memory traffic per pass and a
// full-fleet stall at each merge boundary.
//
// This engine restores residency.  Each tile's (v, px, py) buffers are
// allocated once and kept for the whole solve; each tile has a preferred
// lane, and another lane may steal the tile's next pass when its own tiles
// are blocked (EpochGraph's work queue) — the buffers stay put.  Between
// passes, neighboring tiles exchange only halo strips (width = the merge
// depth) through per-edge mailboxes, and a tile starts pass n+1 as soon as
// its <= 8 neighbors have published their pass-n halos (EpochGraph,
// parallel/task_graph.hpp) — no global barrier, no full-frame reload.  The
// profitable write-back happens once at the end (or on demand via
// snapshot(), e.g. for telemetry), so steady-state per-pass traffic drops
// from 2 frames to the halo perimeter.
//
// Mailboxes are double-buffered by pass parity: a tile publishing pass n
// writes slot n&1, a neighbor gathering for pass n+1 reads slot n&1.  The
// scheduler bounds the epoch skew between neighbors to one pass, so a slot
// is never overwritten before its reader consumed it; publication order
// (strip writes, then a release store of the epoch, acquired before the
// gather) makes the exchange race-free, verified under TSan.
//
// One engine can carry several PLANES — independent problems of one shape
// (TV-L1's two flow components) on one tiling, the way the paper's engine
// runs the u1 and u2 PE arrays side by side on the same window.  The
// EpochGraph holds planes x tiles nodes in plane-major order; planes share
// no edge, so they are disconnected components of the graph (on two lanes
// each lane's preferred block is one plane), and one run() advances every
// plane in one parallel region.  The single-plane engine is the K = 1 case.
//
// Between runs the resident state is EXACT everywhere: run() ends by
// refreshing every halo ring from the final strips, so load (reset_v /
// reset_duals), profitable write-back (snapshot) and primal recovery
// (result, result_into) are per-tile work, run tile-parallel on the
// engine's pool lanes with each lane taking its own block of tiles.
//
// Correctness is the same machine-checkable argument as the pass-based
// solver, by induction over passes: at every pass start a tile buffer holds
// the exact global state (profitable cells by the dependency-cone argument,
// halo cells by the gather of neighbors' exact profitable strips), and the
// per-element arithmetic is the shared fused kernel — so the result is
// BIT-EXACT equal to the sequential reference (tests memcmp it).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tile.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/image.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace chambolle {

/// Per-tile retirement (after the local-error indicators of
/// Alkämper/Hilb/Langer's adaptive primal-dual FEM): each tile tracks the
/// kernel layer's fused single-iteration dual residual (max |dp| of the last
/// iteration of each pass — no extra sweep, no state copies) and RETIRES
/// once the residual stays under `tolerance` for `patience` consecutive
/// passes.  A retired tile publishes a terminal epoch so neighbors never
/// wait on it, redirects their gathers to its final (frozen) halo strips via
/// a frozen-pass marker (mirrored into both mailbox parities once the run
/// quiesces), and its lane's capacity goes to still-active tiles.
struct RetirementRule {
  /// Per-iteration residual threshold: a pass counts toward retirement when
  /// the max |dp| of its last iteration falls below this.  Same semantics
  /// as AdaptiveOptions::tolerance (single-iteration, merge-depth
  /// independent).
  float tolerance = 1e-4f;
  /// Consecutive under-tolerance passes before a tile retires.
  int patience = 2;

  void validate() const;
};

/// How one ResidentTiledEngine::run() treats its passes.  The default is
/// the fixed schedule (every tile runs every pass; bit-exact to the
/// sequential reference).  Fixed, adaptive and multilevel solves are one
/// splitting scheme under different stopping and correction policies
/// (Hilb & Langer's decomposition framework).
struct RunPolicy {
  /// Per-tile early stopping; absent = the fixed schedule.  Deliberately
  /// NOT bit-exact against the fixed solve — retired tiles stop refining
  /// while neighbors continue against their frozen halos; the
  /// tolerance-mode oracle (src/testing) bounds the deviation.
  std::optional<RetirementRule> retire;
  /// Periodic coarse-grid correction (chambolle/multilevel.hpp): every
  /// multilevel.period passes the fleet's parked state is snapshotted at an
  /// exclusive EpochGraph rendezvous (no global barrier — the last lane out
  /// of work runs it), a small V-cycle Chambolle solve computes a fine dual
  /// correction, and every tile folds it into its resident buffers at its
  /// next pass.  Retired tiles absorb corrections in place; a correction
  /// exceeding multilevel.unretire_factor * retire->tolerance inside a
  /// retired tile's profitable region un-retires it.  Results are schedule-
  /// independent (same bits for any lane count).  Requires `retire`; off by
  /// default (period 0), and a frame too small to coarsen runs without it.
  MultilevelOptions multilevel{/*period=*/0};

  void validate() const;
};

/// Outcome of one run(): how many passes each tile actually ran, which
/// tiles converged, and what the coarse correction did.  Per-tile vectors
/// hold planes x tiles-per-plane entries, plane-major; the counts sum over
/// planes.
struct RunReport {
  int pass_cap = 0;                   ///< ceil(iterations / merge depth)
  int planes = 1;
  std::size_t tiles = 0;              ///< over all planes
  std::size_t tiles_converged = 0;    ///< retired before the cap
  std::size_t total_tile_passes = 0;  ///< sum over tiles of passes executed
  /// Sum over tiles of Chambolle iterations actually executed — the
  /// truncated final pass included, so this is NOT always
  /// total_tile_passes * merge_iterations.
  std::size_t total_iterations = 0;
  /// total_iterations split by plane.
  std::vector<std::size_t> plane_iterations;
  std::uint64_t stolen_passes = 0;    ///< passes run off the preferred lane
  std::vector<int> tile_passes;       ///< per-tile passes executed
  /// Per-tile residual of the last executed pass (retirement policy only;
  /// zeros under the fixed schedule, which computes none).
  std::vector<float> tile_residuals;

  int coarse_levels = 0;         ///< realized ladder depth (0 = correction off)
  /// Corrections applied (one per plane and firing that applied one).
  std::uint64_t coarse_solves = 0;
  std::uint64_t coarse_gated = 0;      ///< firings declined by the progress
                                       ///< gate or energy safeguard (includes
                                       ///< the baseline firing)
  std::uint64_t tiles_unretired = 0;   ///< resurrections forced by corrections
  /// max over planes of max |delta p| of each plane's final applied cycle
  float last_correction_max = 0.f;
  double rendezvous_seconds = 0.0;     ///< wall time inside rendezvous bodies

  [[nodiscard]] bool all_converged() const {
    return tiles_converged == tiles;
  }
  /// Passes the fixed schedule (pass_cap per tile) would have executed.
  [[nodiscard]] std::size_t fixed_budget_passes() const {
    return tiles * static_cast<std::size_t>(pass_cap);
  }
  /// Fraction of the fixed budget the run skipped (0 = none).
  [[nodiscard]] double pass_savings() const {
    const std::size_t fixed = fixed_budget_passes();
    return fixed > 0 ? 1.0 - static_cast<double>(total_tile_passes) /
                                 static_cast<double>(fixed)
                     : 0.0;
  }
};

/// Work and traffic accounting of a resident solve (cumulative across
/// run() calls), used by the E6 overhead bench and the acceptance tests.
struct ResidentTiledStats {
  int passes = 0;
  std::size_t tiles = 0;  ///< over all planes
  /// Floats exchanged through mailboxes per pass (both dual components);
  /// the per-pass traffic of the engine, vs. the reload engine's
  /// ~4 * frame_elements (2 fields loaded + 2 stored).
  std::size_t halo_elements_per_pass = 0;
  /// Total mailbox bytes moved so far (published + gathered).
  std::uint64_t halo_bytes_exchanged = 0;
  /// Total element-iterations executed, including redundant halo work.
  std::size_t element_iterations = 0;
  /// Time lanes spent with no runnable tile (point-to-point waits).
  double stall_seconds = 0.0;
  std::uint64_t stall_spins = 0;
};

/// The engine object: buffers persist across run() calls, which is what lets
/// warm-started outer loops (TV-L1 warps) keep duals resident and re-stream
/// only v.  Use solve_resident() for the one-shot form.
///
/// Every buffer is allocated on the constructing thread; parallel regions
/// only fill buffers that already exist.
class ResidentTiledEngine {
 public:
  /// Single-plane engine: tiles `v` with options.{tile_rows, tile_cols,
  /// merge_iterations} and loads the resident buffers; `initial`, when
  /// non-null, warm-starts the duals (otherwise zeros).  Validates like
  /// solve_tiled, and rejects non-finite v or initial duals
  /// (std::invalid_argument).
  ResidentTiledEngine(const Matrix<float>& v, const ChambolleParams& params,
                      const TiledSolverOptions& options,
                      const DualField* initial = nullptr);
  /// K-plane engine: plane k solves *planes[k] from zero duals.  K >= 1; the
  /// planes share one shape and one tiling.  Same validation as above, plus
  /// std::invalid_argument for no planes, a null plane or a shape mismatch.
  ResidentTiledEngine(std::span<const Matrix<float>* const> planes,
                      const ChambolleParams& params,
                      const TiledSolverOptions& options);
  ~ResidentTiledEngine();

  ResidentTiledEngine(const ResidentTiledEngine&) = delete;
  ResidentTiledEngine& operator=(const ResidentTiledEngine&) = delete;

  /// Advances every plane by `iterations` Chambolle iterations, split into
  /// ceil(iterations / merge_iterations) halo-exchange passes (the last one
  /// truncated to the remainder) under `policy`, in one parallel region.
  /// Each plane's result is bit-identical to a single-plane engine's run on
  /// that plane alone, under every policy.  Under the fixed policy runs are
  /// composable: run(a); run(b) is bit-exact equal to run(a + b).  Every
  /// policy leaves the resident state coherent for snapshot()/result() and
  /// for further run() calls.
  RunReport run(int iterations, const RunPolicy& policy = {});

  /// On-demand profitable write-back of plane `plane`'s CURRENT dual state
  /// into `out` (resized as needed) — does not disturb the resident buffers.
  void snapshot(int plane, DualField& out) const;
  /// Single-plane form of snapshot(0, out); std::logic_error on a K-plane
  /// engine (as for every single-plane form below).
  void snapshot(DualField& out) const;

  /// Replaces the input field v (same shape) without touching the resident
  /// duals: the warm-start path of TV-L1 warps, where only v changes between
  /// inner solves.  When `initial` is non-null the duals are reloaded from
  /// it instead (cold restart in place).  Validates every argument (shape,
  /// finite values) before touching any state, so a rejected call leaves
  /// the engine exactly as it was.  Single-plane form.
  void reset_v(const Matrix<float>& v, const DualField* initial = nullptr);
  /// Every plane's form: plane k's input becomes *v[k] (v.size() ==
  /// planes()).  The duals stay resident, or with `zero_duals` are zeroed
  /// in the same tile pass (reset_v + reset_duals in one parallel region).
  /// Same validation contract.
  void reset_v(std::span<const Matrix<float>* const> v,
               bool zero_duals = false);

  /// Zeroes every plane's resident duals in place (Algorithm 1's cold start)
  /// without reallocating tile buffers — the default per-warp restart of
  /// the TV-L1 integration, bit-exact equal to constructing a fresh engine.
  void reset_duals();

  /// snapshot() + primal recovery: the ChambolleResult of the state so far.
  /// Single-plane form.
  [[nodiscard]] ChambolleResult result() const;
  /// Primal recovery of every plane in one tile-parallel region: *u[k]
  /// (resized as needed) receives plane k's u = v - theta div p, computed
  /// per tile from the resident buffers — no dual write-back.  u.size() ==
  /// planes().
  void result_into(std::span<Matrix<float>* const> u) const;

  [[nodiscard]] const ResidentTiledStats& stats() const { return stats_; }
  [[nodiscard]] const TilingPlan& plan() const { return plan_; }
  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] int rows() const { return plan_.frame_rows; }
  [[nodiscard]] int cols() const { return plan_.frame_cols; }

 private:
  struct TileBuffers;
  struct Mailbox;
  /// What fill() does to the duals of every plane.
  enum class Duals { kKeep, kZero, kLoad };

  /// Shared construction: tiling, buffer allocation (zeros), mailboxes,
  /// graph.  Validation is the caller's.
  void build(int rows, int cols);
  /// The pool this engine's parallel regions run on: options.pool when the
  /// caller injected one (the serving fleet gives every engine its own
  /// lane-partitioned pool so concurrent sessions don't serialize on
  /// default_pool()'s region lock), default_pool() otherwise.
  [[nodiscard]] parallel::ThreadPool& pool() const;
  /// Lanes of this engine's regions: the tiled lane request, capped by the
  /// node count.
  [[nodiscard]] int lanes() const;
  /// Runs fn(node, lane) for nodes [first, first + count), each lane taking
  /// a contiguous block — for the whole node range the block EpochGraph
  /// prefers for it, so a tile's load and write-back run on the lane that
  /// usually runs its passes.
  template <class Fn>
  void for_nodes(std::size_t first, std::size_t count, const Fn& fn) const;
  /// Tile-parallel load: plane k's v windows from *v[k] (when v is
  /// non-empty), and every plane's duals per `duals` (kLoad: from
  /// `initial`, single-plane only).  kZero/kLoad also restart the pass/
  /// parity clock and the frozen-pass markers — the full state reset that
  /// makes a reused engine indistinguishable from a freshly constructed one
  /// (the engine-reuse contract pooled serving fleets rely on;
  /// regression-tested by tests/engine_reuse_test.cpp).
  void fill(std::span<const Matrix<float>* const> v, Duals duals,
            const DualField* initial);
  /// Throws std::logic_error unless planes() == 1.
  void require_single_plane(const char* who) const;
  /// Refreshes node's halo ring from its neighbors' pass-(g-1) strips.
  void gather_halos(std::size_t node, int g);
  /// Publishes node's pass-g strips into the parity slot g & 1.
  void publish_strips(std::size_t node, int g);
  /// Publishes node's frozen-pass marker (retirement at pass g), ordered
  /// before the terminal epoch store: later gathers read its final strips
  /// at parity g.  The cross-parity mirror is deferred to run()'s
  /// quiescent epilogue — doing it here would race neighbors concurrently
  /// gathering the same pass (see the comments in resident_tiled.cpp).
  void mark_frozen(std::size_t node, int g);
  /// Profitable write-back of one node into its plane's frame `out`.
  void write_back(std::size_t node, DualField& out) const;
  /// Plane `plane`'s input field, assembled from its tiles' windows.
  [[nodiscard]] Matrix<float> frame_v(int plane) const;

  ChambolleParams params_;
  TiledSolverOptions options_;
  TilingPlan plan_;
  int planes_ = 1;
  /// Per node (plane * tiles-per-plane + tile): the resident buffers.
  std::vector<TileBuffers> tiles_;
  /// Per plane and edge, plane-major: plane k's edge e is
  /// mail_[k * edges + e].
  std::vector<Mailbox> mail_;
  std::vector<std::vector<int>> in_edges_;   // per node: indices into mail_
  std::vector<std::vector<int>> out_edges_;  // per node: indices into mail_
  std::unique_ptr<parallel::EpochGraph> graph_;
  /// Per-node retirement pass, -1 while live.  Set (release) by the retiring
  /// body before its terminal epoch publish, read (acquire) by gather_halos
  /// to pick the mailbox parity, cleared in run()'s epilogue after the
  /// frozen strips are mirrored into both slots.
  std::vector<std::atomic<int>> frozen_pass_;
  int pass_count_ = 0;  ///< global passes completed; also the mailbox parity
  ResidentTiledStats stats_;
};

/// One-shot resident solve of one component: params.iterations under
/// `policy`.  The drop-in counterpart of solve_tiled() with the same options
/// (execution is ignored: the engine is always pool-resident).  Under the
/// fixed policy it is bit-exact equal to the sequential reference; a
/// retirement policy never exceeds that work and typically does much less
/// on smooth/static content.
[[nodiscard]] ChambolleResult solve_resident(
    const Matrix<float>& v, const ChambolleParams& params,
    const TiledSolverOptions& options, const RunPolicy& policy = {},
    RunReport* report = nullptr, ResidentTiledStats* stats = nullptr,
    const DualField* initial = nullptr);

}  // namespace chambolle
