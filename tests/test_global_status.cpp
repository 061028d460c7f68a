// Algorithm GS: convergence, the Corollary's n-1 round bound, the
// optimistic/pessimistic initialization ablation, round-capping, and the
// frontier scan of run_gs against the paper's dense synchronous rounds.
#include "core/global_status.hpp"

#include <gtest/gtest.h>

#include "exp/sweep_engine.hpp"
#include "fault/injection.hpp"

namespace slcube::core {
namespace {

/// The paper's GS as written: every round, every healthy node recomputes
/// from the previous round's table. run_gs must match it exactly.
GsResult dense_gs(const topo::Hypercube& q, const fault::FaultSet& f,
                  const GsOptions& options) {
  const unsigned n = q.dimension();
  GsResult r;
  r.levels = SafetyLevels(n, q.num_nodes(),
                          options.pessimistic_start ? Level{0} : Level(n));
  f.for_each_faulty([&](NodeId a) { r.levels.set(a, 0); });
  for (unsigned round = 1;
       options.max_rounds == 0 || round <= options.max_rounds; ++round) {
    SafetyLevels next = r.levels;
    std::uint64_t changed = 0;
    for (NodeId a = 0; a < q.num_nodes(); ++a) {
      if (f.is_faulty(a)) continue;
      next.set(a, implied_level(q, f, r.levels, a));
      changed += next[a] != r.levels[a] ? 1u : 0u;
    }
    if (changed == 0) {
      r.stabilized = true;
      break;
    }
    r.levels = next;
    r.changes_per_round.push_back(changed);
  }
  r.rounds_to_stabilize = static_cast<unsigned>(r.changes_per_round.size());
  return r;
}

void expect_same_run(const GsResult& got, const GsResult& want) {
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.rounds_to_stabilize, want.rounds_to_stabilize);
  EXPECT_EQ(got.changes_per_round, want.changes_per_round);
  EXPECT_EQ(got.stabilized, want.stabilized);
}

TEST(GsFrontier, EveryQ4FaultSetMatchesDenseRounds) {
  // All 2^16 fault sets of Q4: same levels, rounds and per-round change
  // counts as the dense rounds, within the Corollary's n-1 bound, and
  // equal to Theorem 1's constructive assignment.
  const topo::Hypercube q(4);
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    fault::FaultSet f(q.num_nodes());
    for (NodeId a = 0; a < 16; ++a) {
      if ((mask >> a) & 1u) f.mark_faulty(a);
    }
    const GsResult gs = run_gs(q, f);
    const GsResult dense = dense_gs(q, f, {});
    ASSERT_EQ(gs.levels, dense.levels) << "fault mask " << mask;
    ASSERT_EQ(gs.changes_per_round, dense.changes_per_round)
        << "fault mask " << mask;
    ASSERT_TRUE(gs.stabilized);
    ASSERT_LE(gs.rounds_to_stabilize, 3u) << "fault mask " << mask;
    ASSERT_EQ(gs.levels, constructive_assignment(q, f)) << "fault mask "
                                                         << mask;
  }
}

TEST(GsFrontier, RandomFaultSetsMatchDenseRoundsAtEveryCapAndThreadCount) {
  // Q2-Q12, 0-30% faults, both starts, every round cap 1..n plus "run to
  // quiescence", and 1/4/8 threads.
  for (unsigned n = 2; n <= 12; ++n) {
    const topo::Hypercube q(n);
    auto rng = exp::substream(0xF207'71E5, n, 0);
    for (int t = 0; t < 3; ++t) {
      const auto count = rng.below(q.num_nodes() * 3 / 10 + 1);
      const auto f = fault::inject_uniform(q, count, rng);
      for (const bool pessimistic : {false, true}) {
        for (unsigned cap = 0; cap <= n; ++cap) {
          GsOptions options;
          options.pessimistic_start = pessimistic;
          options.max_rounds = cap;
          const GsResult dense = dense_gs(q, f, options);
          for (const unsigned threads : {1u, 4u, 8u}) {
            options.threads = threads;
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " faults=" << count
                         << " pessimistic=" << pessimistic << " cap=" << cap
                         << " threads=" << threads);
            expect_same_run(run_gs(q, f, options), dense);
          }
        }
      }
    }
  }
}

TEST(GsFrontier, EvaluationCountsAtQ10) {
  const topo::Hypercube q(10);
  // One fault: round 1 evaluates its 10 neighbors, none moves (each still
  // sees nine neighbors at level 10), so GS stops after that round.
  const fault::FaultSet one(q.num_nodes(), {0b1011001110});
  const GsResult single = run_gs(q, one);
  EXPECT_EQ(single.rounds_to_stabilize, 0u);
  EXPECT_EQ(single.evaluations, 10u);
  // Node 0 isolated by its 10 faulty neighbors. Write L_k for the C(10,k)
  // nodes at distance k from node 0; L_k settles at level k-1 and node 0
  // at 1. Round 1 evaluates node 0 and L_2 (46 nodes) and they fall to 1.
  // Round r >= 2 evaluates only L_(r+1): round r-1 lowered L_r to r-1,
  // which can lower only neighbors at level r+1 or above, and L_(r-1)
  // already sits at r-2. The last mover, node 1111111111 at level 9, can
  // lower nobody. So each healthy node is evaluated once, where the
  // dense rounds evaluate all 1014 in each of 10 rounds.
  fault::FaultSet isolation(q.num_nodes());
  for (Dim d = 0; d < 10; ++d) isolation.mark_faulty(NodeId{1} << d);
  for (const unsigned threads : {1u, 4u}) {
    GsOptions options;
    options.threads = threads;
    const GsResult iso = run_gs(q, isolation, options);
    EXPECT_EQ(iso.rounds_to_stabilize, 9u);
    EXPECT_EQ(iso.changes_per_round,
              (std::vector<std::uint64_t>{46, 120, 210, 252, 210, 120, 45,
                                          10, 1}));
    EXPECT_EQ(iso.evaluations, 1014u);
    EXPECT_EQ(dense_gs(q, isolation, {}).levels, iso.levels);
  }
  // From the all-0 start a fault-free cube climbs one level per round, so
  // all 1024 nodes move in each of 10 rounds and are evaluated again in
  // the quiescent 11th: no saving over the dense rounds here.
  GsOptions pessimistic;
  pessimistic.pessimistic_start = true;
  const GsResult climb =
      run_gs(q, fault::FaultSet(q.num_nodes()), pessimistic);
  EXPECT_EQ(climb.rounds_to_stabilize, 10u);
  EXPECT_EQ(climb.evaluations, 1024u * 11u);
}

TEST(Gs, FaultFreeNeedsZeroRounds) {
  // "in the absence of faulty nodes ... no extra overhead is introduced".
  const topo::Hypercube q(6);
  const fault::FaultSet none(q.num_nodes());
  const auto gs = run_gs(q, none);
  EXPECT_EQ(gs.rounds_to_stabilize, 0u);
  EXPECT_TRUE(gs.stabilized);
  for (NodeId a = 0; a < q.num_nodes(); ++a) EXPECT_EQ(gs.levels[a], 6);
}

TEST(Gs, Fig1TakesTwoRounds) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0011, 0b0100, 0b0110, 0b1001});
  const auto gs = run_gs(q, f);
  EXPECT_EQ(gs.rounds_to_stabilize, 2u);
  EXPECT_TRUE(gs.stabilized);
  ASSERT_EQ(gs.changes_per_round.size(), 2u);
  // Round 1 lowers exactly the four nodes with two faulty neighbors.
  EXPECT_EQ(gs.changes_per_round[0], 4u);
  // Round 2 lowers 0000 and 0101 to level 2.
  EXPECT_EQ(gs.changes_per_round[1], 2u);
}

class GsDims : public ::testing::TestWithParam<unsigned> {};

TEST_P(GsDims, CorollaryRoundBound) {
  // The Corollary: n-1 rounds always suffice, whatever the fault count
  // or distribution — including heavily disconnected cubes.
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 101);
  for (int t = 0; t < 30; ++t) {
    const auto count = rng.below(q.num_nodes());
    const auto f = fault::inject_uniform(q, count, rng);
    const auto gs = run_gs(q, f);
    EXPECT_TRUE(gs.stabilized);
    EXPECT_LE(gs.rounds_to_stabilize, n - 1)
        << "n=" << n << " faults=" << count;
  }
}

TEST_P(GsDims, PessimisticStartReachesSameFixedPoint) {
  // DESIGN.md ablation #2: the all-0 start converges to the same unique
  // fixed point (Theorem 1), merely needing different round counts.
  const unsigned n = GetParam();
  const topo::Hypercube q(n);
  Xoshiro256ss rng(n * 777);
  for (int t = 0; t < 10; ++t) {
    const auto f = fault::inject_uniform(q, rng.below(q.num_nodes() / 2),
                                         rng);
    GsOptions pess;
    pess.pessimistic_start = true;
    const auto up = run_gs(q, f, pess);
    const auto down = run_gs(q, f);
    EXPECT_TRUE(up.stabilized);
    EXPECT_EQ(up.levels, down.levels);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims2To8, GsDims,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Gs, PessimisticFaultFreeNeedsNRounds) {
  // From all-0 the fault-free cube climbs one level per round: n rounds —
  // worse than the paper's optimistic start, which needs zero. This is
  // exactly why the paper initializes at n.
  const unsigned n = 5;
  const topo::Hypercube q(n);
  const fault::FaultSet none(q.num_nodes());
  GsOptions pess;
  pess.pessimistic_start = true;
  const auto gs = run_gs(q, none, pess);
  EXPECT_EQ(gs.rounds_to_stabilize, n);
  for (NodeId a = 0; a < q.num_nodes(); ++a) EXPECT_EQ(gs.levels[a], n);
}

TEST(Gs, RoundCapProducesUnstabilizedLevels) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0011, 0b0100, 0b0110, 0b1001});
  GsOptions capped;
  capped.max_rounds = 1;
  const auto gs = run_gs(q, f, capped);
  EXPECT_FALSE(gs.stabilized);
  EXPECT_EQ(gs.rounds_to_stabilize, 1u);
  // After one round node 0101 still shows the round-1 value 4, not the
  // final 2.
  EXPECT_EQ(gs.levels[0b0101], 4);
}

TEST(Gs, RoundCapAboveNeedIsHarmless) {
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0011, 0b0100, 0b0110, 0b1001});
  GsOptions opts;
  opts.max_rounds = 50;
  const auto gs = run_gs(q, f, opts);
  EXPECT_TRUE(gs.stabilized);
  EXPECT_EQ(gs.levels, compute_safety_levels(q, f));
}

TEST(Gs, MonotoneDecreaseFromOptimisticStart) {
  // From the n start, a node's level never increases across rounds; the
  // change counts must therefore sum to at most healthy_count * n.
  const topo::Hypercube q(6);
  Xoshiro256ss rng(9);
  const auto f = fault::inject_uniform(q, 20, rng);
  const auto gs = run_gs(q, f);
  std::uint64_t total_changes = 0;
  for (const auto c : gs.changes_per_round) total_changes += c;
  EXPECT_LE(total_changes, f.healthy_count() * q.dimension());
}

TEST(Gs, AllNodesFaulty) {
  const topo::Hypercube q(3);
  fault::FaultSet f(q.num_nodes());
  for (NodeId a = 0; a < 8; ++a) f.mark_faulty(a);
  const auto gs = run_gs(q, f);
  EXPECT_EQ(gs.rounds_to_stabilize, 0u);
  for (NodeId a = 0; a < 8; ++a) EXPECT_EQ(gs.levels[a], 0);
}

TEST(Gs, IsolatedNodeGetsLevelOne) {
  // Fig. 3's isolated node 1110: all neighbors faulty -> sorted (0,0,0,0)
  // -> level 1 (it can still "reach" its dead neighbors vacuously, which
  // is why unicasts from it to live nodes are refused by H >= 2 > 1).
  const topo::Hypercube q(4);
  const fault::FaultSet f(q.num_nodes(), {0b0110, 0b1010, 0b1100, 0b1111});
  EXPECT_EQ(compute_safety_levels(q, f)[0b1110], 1);
}

}  // namespace
}  // namespace slcube::core
