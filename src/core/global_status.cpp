#include "core/global_status.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "common/thread_pool.hpp"

namespace slcube::core {

namespace {

/// A node whose implied level differs from its stored one this round.
struct Move {
  NodeId node;
  Level from;
  Level to;
};

/// Chunk boundaries fall on multiples of both word widths, so no two
/// chunks share an active-bitset word or a packed-level word.
constexpr std::size_t kChunkAlign =
    std::lcm(std::size_t{64}, std::size_t{PackedLevels::kLevelsPerWord});

/// One chunk of a synchronous round: evaluate every active healthy node
/// in [begin, end) against `levels` (read-only until the round's barrier),
/// consume its active bit and append the nodes that move to `moved`.
/// Returns how many nodes were evaluated.
std::uint64_t scan_range(const topo::Hypercube& cube,
                         const fault::FaultSet& faults,
                         const SafetyLevels& levels,
                         std::vector<std::uint64_t>& active, std::size_t begin,
                         std::size_t end, std::vector<Move>& moved) {
  const auto& faulty = faults.words();
  std::uint64_t evaluations = 0;
  for (std::size_t w = begin / 64; w < (end + 63) / 64; ++w) {
    const std::uint64_t live = active[w] & ~faulty[w];
    active[w] = 0;
    evaluations += bits::popcount64(live);
    bits::for_each_set64(live, [&](unsigned b) {
      const auto a = static_cast<NodeId>(w * 64 + b);
      const Level updated = implied_level(cube, faults, levels, a);
      const Level current = levels[a];
      if (updated != current) moved.push_back({a, current, updated});
    });
  }
  return evaluations;
}

/// Activate every neighbor of `a` whose level is at least `reach`: the
/// neighbors a move of `a` can move next round (see run_gs). Faulty
/// neighbors read 0 and never qualify, since `reach` is at least 1.
void activate_neighbors(const topo::Hypercube& cube,
                        const SafetyLevels& levels, NodeId a, unsigned reach,
                        std::vector<std::uint64_t>& active) {
  cube.for_each_neighbor(a, [&](Dim, NodeId b) {
    active[b >> 6] |= std::uint64_t{levels[b] >= reach} << (b & 63);
  });
}

}  // namespace

GsResult run_gs(const topo::Hypercube& cube, const fault::FaultSet& faults,
                const GsOptions& options) {
  const unsigned n = cube.dimension();
  const auto num_nodes = static_cast<std::size_t>(cube.num_nodes());
  const bool rising = options.pessimistic_start;
  GsResult result;
  result.levels =
      SafetyLevels(n, cube.num_nodes(), rising ? Level{0} : Level(n));
  faults.for_each_faulty([&](NodeId a) { result.levels.set(a, 0); });

  // Synchronous rounds (the paper's parbegin/parend): a node's new level
  // is a function of its neighbors' previous-round levels, so only a node
  // with a neighbor that moved last round can move this round. From the
  // all-n start levels only fall: a healthy node at level L falls to some
  // i < L only once i+1 neighbors sit at or below i-1, so a neighbor
  // falling to y can move it only if y <= L-2. From the all-0 start
  // levels only rise: a node at L rises only when fewer than L+1
  // neighbors sit at or below L-1, so a neighbor rising from x can move
  // it only if x <= L-1. Each round evaluates just the nodes activated by
  // these tests; all others provably keep their level. Round 1 treats
  // every fault as a fall from n to 0 (other nodes see n neighbors at n),
  // or, from the all-0 start, evaluates every node.
  const unsigned slack = rising ? 1 : 2;
  std::vector<std::uint64_t> active((num_nodes + 63) / 64, 0);
  if (rising) {
    for (std::size_t a = 0; a < num_nodes; ++a) {
      active[a >> 6] |= std::uint64_t{1} << (a & 63);
    }
  } else {
    faults.for_each_faulty([&](NodeId a) {
      activate_neighbors(cube, result.levels, a, slack, active);
    });
  }

  // The pool is built once and reused for every round. A round's scan
  // only reads the table and ends in a barrier; its moves are then applied
  // and their neighbors activated serially, in chunk order. So the fixed
  // point, the per-round change counts and the evaluation count are
  // bit-identical at any worker count.
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }
  std::vector<std::vector<Move>> moved(pool ? pool->size() : 1);
  std::vector<std::uint64_t> evaluations(moved.size(), 0);
  const auto scan = [&](std::size_t chunk, std::size_t begin,
                        std::size_t end) {
    evaluations[chunk] = scan_range(cube, faults, result.levels, active,
                                    begin, end, moved[chunk]);
  };

  // Safety valve far above any possible stabilization time: each healthy
  // node changes at most n times and every non-final round changes at
  // least one node.
  const std::uint64_t hard_cap = cube.num_nodes() * n + 1;
  for (std::uint64_t round = 1;; ++round) {
    if (options.max_rounds != 0 && round > options.max_rounds) break;
    SLC_ASSERT_MSG(round <= hard_cap, "GS failed to converge");
    if (pool == nullptr) {
      scan(0, 0, num_nodes);
    } else {
      parallel_for_aligned(*pool, num_nodes, kChunkAlign, scan);
    }
    std::uint64_t changed = 0;
    for (std::size_t c = 0; c < moved.size(); ++c) {
      result.evaluations += std::exchange(evaluations[c], 0);
      changed += moved[c].size();
      for (const Move& m : moved[c]) result.levels.set(m.node, m.to);
    }
    if (changed == 0) {
      result.stabilized = true;
      break;
    }
    result.changes_per_round.push_back(changed);
    for (std::vector<Move>& chunk : moved) {
      for (const Move& m : chunk) {
        activate_neighbors(cube, result.levels, m.node,
                           std::min(m.from, m.to) + slack, active);
      }
      chunk.clear();
    }
  }
  result.rounds_to_stabilize =
      static_cast<unsigned>(result.changes_per_round.size());
  if (result.stabilized) {
    SLC_ENSURE_MSG(is_consistent(cube, faults, result.levels),
                   "stabilized GS must satisfy Definition 1");
  }
  return result;
}

SafetyLevels compute_safety_levels(const topo::Hypercube& cube,
                                   const fault::FaultSet& faults,
                                   unsigned threads) {
  GsOptions options;
  options.threads = threads;
  return run_gs(cube, faults, options).levels;
}

}  // namespace slcube::core
