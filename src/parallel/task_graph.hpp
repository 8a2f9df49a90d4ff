// task_graph.hpp — point-to-point epoch scheduling over a neighbor graph.
//
// The bulk-synchronous engines in this repo separate passes with a GLOBAL
// rendezvous: no tile starts pass n+1 until every tile finished pass n, so
// one slow tile stalls the whole fleet.  The dependency structure of a
// sliding-window sweep is far weaker than that — a tile's pass n+1 reads
// only the pass-n halos of its <= 8 grid neighbors (cf. the interface-data
// exchange of domain-decomposition TV solvers, Hilb & Langer 2022).
//
// EpochGraph schedules exactly that relaxation.  Nodes carry an epoch
// counter (= passes completed); a node may run pass e as soon as all its
// neighbors have completed pass e-1.  Every node has a PREFERRED lane — the
// lanes split the nodes into contiguous blocks and each lane sweeps its own
// block first, so a node's working set (the resident tile buffer) usually
// stays with one worker — but another lane may steal the node's next pass
// whenever its own block has nothing runnable.  A CAS claim serializes each
// (node, epoch) to exactly one execution.  Two neighbors can never drift
// more than one epoch apart, which is what makes the engine's
// parity-double-buffered mailboxes safe (see resident_tiled.cpp).
//
// Synchronization is point-to-point: the body's writes are published by a
// release store of the node's epoch, and a lane acquires a node's own epoch
// and its neighbors' epochs before running it.  There is no barrier
// anywhere; lanes that find no runnable node spin briefly, then yield (stall
// time is measured and reported, and surfaces as `tiles.stall_micros`
// telemetry).
//
// An exception thrown by the body aborts the run: every lane observes the
// abort flag in its wait loops, drains, and the first exception is rethrown
// on the caller (via the pool's normal propagation).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace chambolle::parallel {

class EpochGraph {
 public:
  /// body(node, epoch, lane): run pass `epoch` (0-based) of `node` on `lane`.
  /// The return value decides the node's fate — `true` RETIRES the node
  /// after this pass (its epoch jumps to the terminal value, so neighbors
  /// never wait on it again and no lane runs it any more), `false` advances
  /// it normally.  A fixed schedule is a body that always returns false.
  using PassFn = std::function<bool(int, int, int)>;

  /// `neighbors[n]` lists the nodes whose previous epoch must be complete
  /// before `n` may advance (the relation should be symmetric; a one-sided
  /// edge still only delays, never corrupts).  Self-edges are ignored.
  explicit EpochGraph(std::vector<std::vector<int>> neighbors);

  /// Aggregate outcome of one run() — telemetry accounting.
  struct RunStats {
    double stall_seconds = 0.0;      ///< summed over lanes
    std::uint64_t stall_spins = 0;   ///< ready-scan sweeps that found no work
    std::uint64_t executed_passes = 0;  ///< body invocations
    std::uint64_t stolen_passes = 0;    ///< run off the preferred lane
    std::uint64_t retired_nodes = 0;    ///< bodies that returned true
    std::uint64_t rendezvous_fired = 0; ///< rendezvous bodies executed
  };

  /// Handle passed to a rendezvous body; lets it un-retire nodes whose state
  /// the rendezvous work invalidated.  Only meaningful inside the body — the
  /// handle must not escape it.
  class RendezvousControl {
   public:
    /// Pass index of this firing's boundary B = (firing + 1) * period: every
    /// live node has completed exactly B passes, every other node is
    /// retired.  The node pass that runs next after this body is pass B.
    [[nodiscard]] int boundary() const { return boundary_; }
    /// Un-retires a retired node: its epoch rewinds to boundary() and it
    /// resumes passes (up to the usual max_passes cap) once the body
    /// returns.  No-op on a node that is not retired.  During a firing no
    /// node can be at the cap without being retired (the pass gate orders
    /// the last pass after the last firing), so this never extends a capped
    /// node's budget.
    void resurrect(int node);

   private:
    friend class EpochGraph;
    RendezvousControl(EpochGraph& graph, int boundary, int max_passes,
                      std::atomic<int>& finished)
        : graph_(graph),
          boundary_(boundary),
          max_passes_(max_passes),
          finished_(finished) {}
    EpochGraph& graph_;
    int boundary_;
    int max_passes_;
    std::atomic<int>& finished_;
    bool resurrected_ = false;
  };

  /// An optional periodic EXCLUSIVE node — the scheduling primitive of the
  /// resident engine's coarse-grid correction (resident_tiled.cpp).
  /// fire(firing, ctl) runs firing `firing` (0-based) at pass boundary
  /// ctl.boundary() = (firing + 1) * period.  Passing none (or period <= 0,
  /// or no callback) means no firing and no pass gate.
  struct Rendezvous {
    int period = 0;
    std::function<void(int, RendezvousControl&)> fire;
  };

  /// Runs every node until its body retires it or it completes `max_passes`
  /// epochs — the hard cap that guarantees termination — on `lanes` lanes of
  /// `pool`, subject to the neighbor constraint.  Scheduling is an
  /// affinity-preferring work queue: a lane scans its own contiguous block
  /// first and, when none of those nodes is runnable (retired, capped or
  /// blocked), steals any ready node in the graph, so capacity freed by
  /// early-retiring nodes or an uneven block split is redistributed instead
  /// of idling.  Returns the run's statistics; rethrows the first body
  /// exception.
  ///
  /// NOTE: a retiring body must NOT write mailbox slots its live neighbors
  /// may still be reading — a neighbor running the SAME pass only observed
  /// this node's epoch >= that pass, which holds during the retiring
  /// execution too, so no release/acquire pair orders such writes.  Publish
  /// a marker whose consumers re-route their reads instead, and defer any
  /// slot rewriting until the run has quiesced (see resident_tiled.cpp's
  /// frozen-pass protocol).
  ///
  /// With a rendezvous, firing m sits at pass boundary B = (m + 1) * period;
  /// there are (max_passes - 1) / period firings (a boundary at or past the
  /// cap would have no subsequent pass to feed).  Semantics:
  ///
  ///  * Firing m becomes ready when EVERY node's epoch is >= B — live nodes
  ///    parked at exactly B, the rest retired — and is claimed by one lane
  ///    via CAS.  While the body runs, no node body can run anywhere: pass
  ///    B is gated on the firing's completion, passes < B are already done.
  ///    The body therefore owns the whole graph state (an exclusive window)
  ///    WITHOUT a blocking barrier: lanes park only when truly out of work,
  ///    and the last lane to finish a pre-boundary pass fires it itself.
  ///  * A node may run pass e only after rendezvous epoch >= e / period
  ///    (acquire, pairing with the firing's release publish) — this makes
  ///    the body's writes visible to every subsequent node pass, and bounds
  ///    a node's lead over the rendezvous to < period passes.
  ///  * The body may resurrect retired nodes (RendezvousControl); the run
  ///    ends when all firings are spent (or every node is finished and the
  ///    last firing chose not to resurrect anyone) AND every node is
  ///    finished.
  RunStats run(int max_passes, int lanes, ThreadPool& pool,
               const PassFn& body, const Rendezvous* rendezvous = nullptr);

  [[nodiscard]] int nodes() const { return static_cast<int>(adj_.size()); }

  /// The preferred lane of a node when running on `lanes` lanes: contiguous
  /// blocks, so grid-adjacent nodes usually share a lane and cross-lane
  /// waits happen only at block seams.  Work stealing may run it elsewhere.
  [[nodiscard]] int owner(int node, int lanes) const;

  /// First node of lane `lane`'s contiguous block when `nodes` nodes run on
  /// `lanes` lanes (lane == lanes gives the end): the split owner() and
  /// run() use, exposed so callers can place per-node work on the same lane.
  [[nodiscard]] static int block_begin(int nodes, int lanes, int lane) {
    return static_cast<int>(static_cast<long long>(nodes) * lane / lanes);
  }

 private:
  struct alignas(64) NodeState {
    std::atomic<int> epoch{0};  ///< passes completed; release on publish
    std::atomic<int> claim{0};  ///< epochs claimed (work-queue CAS)
  };

  std::vector<std::vector<int>> adj_;
  std::vector<NodeState> state_;
};

}  // namespace chambolle::parallel
