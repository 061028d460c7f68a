// Algorithm GLOBAL_STATUS (GS) — the paper's synchronous iterative
// computation of safety levels.
//
// Initially every nonfaulty node is n-safe and every faulty node 0-safe
// (so a fault-free cube needs no work at all). Each round, every healthy
// node recomputes NODE_STATUS from its neighbors' previous-round levels;
// run_gs evaluates only the nodes with a neighbor that moved in the
// previous round, since no other node can move.
// The Corollary to Property 1 guarantees stabilization within n-1 rounds
// for every fault distribution, including disconnected cubes.
//
// This is the centralized "oracle" execution used by the routing code and
// the experiment harness; src/sim runs the same protocol message-by-
// message over the discrete-event simulator, and tests assert the two
// agree bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/safety.hpp"

namespace slcube::core {

struct GsResult {
  SafetyLevels levels;
  /// Rounds after which no level changed anymore. 0 means the initial
  /// assignment was already stable (e.g. fault-free cube). This is the
  /// quantity Fig. 2 plots.
  unsigned rounds_to_stabilize = 0;
  /// changes_per_round[r] = number of nodes whose level changed in round
  /// r+1. Empty trailing rounds are not stored.
  std::vector<std::uint64_t> changes_per_round;
  /// True iff a quiescent round was reached (always true when
  /// GsOptions::max_rounds == 0).
  bool stabilized = false;
  /// Healthy nodes evaluated, summed over every round run (the quiescent
  /// one included): the host-independent work counter of a build. A
  /// round evaluates only the neighbors of the previous round's moves.
  std::uint64_t evaluations = 0;
};

struct GsOptions {
  /// Upper bound on rounds (the paper's D). 0 means "run to quiescence"
  /// (a round with no changes), which Property 1 bounds by n-1 changing
  /// rounds for the paper's optimistic start. A finite cap below the
  /// stabilization point deliberately yields *unstabilized* levels, used
  /// by robustness experiments; GsResult::stabilized reports which case
  /// occurred.
  unsigned max_rounds = 0;
  /// Start every healthy node at this level instead of n (the paper's
  /// choice). The all-0 "pessimistic" start is an ablation (DESIGN.md
  /// choice #2); GS converges to the same unique fixed point from above
  /// (n-start) — the 0-start needs the stabilization loop to keep
  /// running while levels *rise*, which plain GS also handles.
  bool pessimistic_start = false;
  /// Worker threads for the synchronous rounds: 1 = the classic serial
  /// loop, 0 = one per hardware thread, k = exactly k. Each round's scan
  /// only reads the previous round's table and a barrier ends it; the
  /// moves are applied afterwards, so the fixed point — and
  /// rounds_to_stabilize/changes_per_round/evaluations — are
  /// bit-identical at every thread count (test_global_status pins
  /// {1,4,8}). Node ranges are split on word boundaries so no two workers
  /// ever write the same 64-bit word.
  unsigned threads = 1;
};

/// Run GS to stabilization (or the round cap).
[[nodiscard]] GsResult run_gs(const topo::Hypercube& cube,
                              const fault::FaultSet& faults,
                              const GsOptions& options = {});

/// Convenience: just the stabilized levels. `threads` as in
/// GsOptions::threads — the mega-cube scratch-build entry point.
[[nodiscard]] SafetyLevels compute_safety_levels(const topo::Hypercube& cube,
                                                 const fault::FaultSet& faults,
                                                 unsigned threads = 1);

}  // namespace slcube::core
