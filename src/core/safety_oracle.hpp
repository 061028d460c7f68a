// SafetyOracle — a stateful safety-level table with incremental updates.
//
// compute_safety_levels() rebuilds the whole Theorem-1 fixed point from
// scratch: an O(N) table plus its rounds' frontier and an O(N · n)
// consistency check per fault set, paid again for every sampled
// configuration of a sweep. But the paper's own state-change
// discipline (Section 2.2, run as message traffic by
// sim/protocol_gs.cpp's recompute-and-cascade kernel) shows that a
// single fault event only perturbs levels along a bounded monotone
// cascade: seed the changed node's neighborhood, recompute a node only
// when one of its inputs actually moved. SafetyOracle is the static-core
// analogue of that discipline — same fixed point, no messages.
//
// Correctness rests on two facts:
//  * node_status is monotone in its inputs, so after marking new faults
//    (levels forced to 0) every recomputation can only LOWER a level,
//    and after marking recoveries (rejoining at 0, pointwise below the
//    new fixed point) every recomputation can only RAISE one. Each
//    monotone phase therefore terminates — a level moves at most n
//    times — which is why apply() splits a mixed batch into a falling
//    phase (all additions) and a rising phase (all removals). The
//    worklist drains FIFO: a node is recomputed after every input queued
//    before it, so it tends to settle in one step instead of falling one
//    level per re-enqueue as a LIFO stack lets it.
//  * Theorem 1: the consistent assignment is unique. Any quiescent
//    state (every healthy node equals its implied level) IS the from-
//    scratch fixed point, so incremental results are bit-identical to
//    compute_safety_levels — which test_safety_oracle verifies over
//    randomized add/remove interleavings.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/global_status.hpp"
#include "core/safety.hpp"

namespace slcube::core {

/// Cascade-vs-rebuild crossover, applied in one place: SafetyOracle::apply
/// rebuilds from scratch once a batch toggles N / kRetargetRebuildFactor
/// nodes or more, and cascades below that. Measured with the work
/// counters in EXPERIMENTS.md "Incremental oracle cost model".
inline constexpr std::uint64_t kRetargetRebuildFactor = 48;

class SafetyOracle {
 public:
  /// Fault-free start: every node at the fixed-point level n.
  explicit SafetyOracle(const topo::Hypercube& cube);

  /// Start at the fixed point of an arbitrary fault set (one full GS).
  /// `build_threads` parallelizes that initial scratch build only
  /// (GsOptions::threads semantics); every later cascade is serial and
  /// the fixed point is identical for every value.
  SafetyOracle(const topo::Hypercube& cube, const fault::FaultSet& faults,
               unsigned build_threads = 1);

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }
  [[nodiscard]] const fault::FaultSet& faults() const noexcept {
    return faults_;
  }
  /// The current Theorem-1 fixed point for faults().
  [[nodiscard]] const SafetyLevels& levels() const noexcept { return levels_; }

  /// Healthy node `a` dies: apply() with the single toggle {a}.
  void add_fault(NodeId a);

  /// Faulty node `a` recovers: apply() with the single toggle {a}. The
  /// node rejoins at 0 — see Network::recover_node for why pessimism is
  /// what makes the rejoin monotone.
  void remove_fault(NodeId a);

  /// The one update entry point: every node in `toggles` (in range, each
  /// at most once) toggles its fault state. Below N /
  /// kRetargetRebuildFactor toggles, additions run as one falling cascade
  /// and then removals as one rising cascade; at or past it the table is
  /// rebuilt from scratch. Either way the result is bit-identical to
  /// compute_safety_levels.
  void apply(std::span<const NodeId> toggles);

  /// Move to an arbitrary new fault set: apply() of the symmetric
  /// difference with the current one — the sweep-engine entry point.
  void retarget(const fault::FaultSet& target);

  /// Work counters since construction (cost-model instrumentation; see
  /// EXPERIMENTS.md "Incremental oracle cost model"). Accounting
  /// contract: the first three count *incremental* cascade work only —
  /// an apply() that rebuilds bumps `rebuilds` and nothing else, and an
  /// empty apply() (or a retarget to the current fault set) is a free
  /// no-op (no counter moves, no change-log entries).
  struct Stats {
    std::uint64_t recomputes = 0;     ///< node_status evaluations
    std::uint64_t level_changes = 0;  ///< recomputations that moved a level
    std::uint64_t cascades = 0;       ///< monotone phases drained
    std::uint64_t rebuilds = 0;       ///< applies that rebuilt instead
    std::uint64_t worklist_peak = 0;  ///< most entries the queue has held
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// When non-null, the id of every node whose *stored* level moves is
  /// appended: cascade updates, the forced zeroes of new faults, and —
  /// after a rebuild — every node (the whole table was rewritten).
  /// Duplicates are possible; the caller owns clearing the vector
  /// between batches. This is the delta feed EgsOracle uses to
  /// resync the EGS self view without rescanning the cube.
  void set_change_log(std::vector<NodeId>* log) noexcept { change_log_ = log; }

 private:
  /// Queue `a` for recomputation (dedup; faulty nodes never enqueue).
  void push(NodeId a);
  /// Drain the worklist FIFO: recompute each queued node, propagate
  /// changes to its neighbors until quiescence.
  void cascade();

  topo::Hypercube cube_;
  fault::FaultSet faults_;
  SafetyLevels levels_;
  /// Cascade queue: drained from a head index; the consumed prefix is
  /// dropped once it outgrows both the live entries and kCompactAfter.
  /// Empty between cascades.
  std::vector<NodeId> worklist_;
  static constexpr std::size_t kCompactAfter = 1024;
  std::vector<std::uint8_t> queued_;  ///< worklist membership, by node
  std::vector<NodeId>* change_log_ = nullptr;
  Stats stats_;
  // Reusable scratch for apply()/retarget(): per-call temporaries would
  // otherwise be reallocated on every churn event and sweep trial — at
  // Q16+ that allocator thrash dominates the cascades themselves.
  std::vector<NodeId> toggles_scratch_;
  std::vector<NodeId> additions_scratch_;
  std::vector<NodeId> removals_scratch_;
};

}  // namespace slcube::core
