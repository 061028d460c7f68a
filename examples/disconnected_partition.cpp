// Disconnected hypercubes (Section 3.3) — the paper's headline scenario.
//
// A maintenance accident kills every neighbor of one node, splitting the
// machine in two. This example shows:
//   * component analysis of the healthy subgraph,
//   * Theorem 4: the Lee-Hayes and Wu-Fernandez safe sets are EMPTY, so
//     the earlier schemes cannot route at all,
//   * the safety-level scheme routing normally inside each part and
//     refusing cross-partition unicasts AT THE SOURCE, without sending a
//     single message.
//
//   $ ./disconnected_partition [dimension=6] [seed=2024]
#include <cstdio>

#include "analysis/components.hpp"
#include "baselines/safety_level_router.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "core/properties.hpp"
#include "core/safe_node.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  // inject_isolation spends n + 2 faults and must leave a healthy node.
  const unsigned n = positional_or(argc, argv, 1, 6u, "dimension", 3u,
                                   topo::Hypercube::kMaxDimension);
  const auto seed =
      positional_or<std::uint64_t>(argc, argv, 2, 2024, "seed");

  const topo::Hypercube cube(n);
  const topo::HypercubeView view(cube);
  Xoshiro256ss rng(seed);

  NodeId victim = 0;
  const fault::FaultSet faults =
      fault::inject_isolation(cube, /*extra_count=*/2, rng, victim);
  std::printf("Q%u, %llu faults isolate node %s\n", n,
              static_cast<unsigned long long>(faults.count()),
              to_bits(victim, n).c_str());

  const auto comps = analysis::connected_components(view, faults);
  std::printf("healthy subgraph: %zu components, sizes:", comps.count());
  for (const auto size : comps.size) {
    std::printf(" %llu", static_cast<unsigned long long>(size));
  }
  std::printf("\n\n");

  // Theorem 4: the competing safe-node schemes are dead in the water.
  const auto lh =
      core::compute_safe_nodes(cube, faults, core::SafeNodeRule::kLeeHayes);
  const auto wf = core::compute_safe_nodes(cube, faults,
                                           core::SafeNodeRule::kWuFernandez);
  std::printf("Theorem 4: LH safe nodes = %llu, WF safe nodes = %llu "
              "(both must be 0)\n",
              static_cast<unsigned long long>(lh.safe_count()),
              static_cast<unsigned long long>(wf.safe_count()));

  baselines::SafetyLevelRouter router;
  router.prepare(cube, faults);

  // Cross-partition unicasts: refused at the source, zero traffic.
  unsigned refused = 0, attempts = 0;
  for (NodeId s = 0; s < cube.num_nodes(); ++s) {
    if (faults.is_faulty(s) || s == victim) continue;
    ++attempts;
    const auto a = router.route(s, victim);
    refused += a.refused ? 1u : 0u;
  }
  std::printf("\ncross-partition unicasts toward %s: %u/%u refused at the "
              "source (0 messages sent)\n",
              to_bits(victim, n).c_str(), refused, attempts);

  // Intra-component unicasts keep working.
  unsigned delivered = 0, optimal = 0, total = 0;
  for (int t = 0; t < 2000; ++t) {
    const auto pair = workload::sample_uniform_pair(faults, rng);
    if (!pair || !comps.same_component(pair->s, pair->d)) continue;
    ++total;
    const auto a = router.route(pair->s, pair->d);
    delivered += a.delivered ? 1u : 0u;
    optimal +=
        (a.delivered && a.hops() == cube.distance(pair->s, pair->d)) ? 1u
                                                                     : 0u;
  }
  std::printf("intra-component unicasts: %u/%u delivered (%u optimal)\n",
              delivered, total, optimal);
  return 0;
}
