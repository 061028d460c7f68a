// A real parallel-algorithm use case: an FFT-style butterfly exchange on
// a faulty hypercube. The fault-free algorithm runs n rounds; in round k
// every node exchanges a value with its dimension-k neighbor — on a
// faulty machine those partners may be dead or only reachable indirectly,
// so each exchange becomes a safety-level unicast (1 hop when the partner
// link works, a rerouted path otherwise is impossible for H = 1 pairs
// whose partner is faulty: the algorithm must degrade).
//
// This example runs the butterfly as an all-reduce (sum) over the healthy
// nodes: dead partners contribute the identity, and any value a healthy
// node cannot obtain directly is fetched with a unicast from the
// partner's component if possible. It reports, per round, how many
// exchanges were direct, rerouted, or lost — and whether the surviving
// nodes agree on the final reduction (they do whenever the healthy
// subgraph is connected).
//
//   $ ./butterfly_collective [dimension=7] [faults=9] [seed=5]
#include <cstdio>
#include <set>
#include <vector>

#include "analysis/components.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const unsigned n = positional_or(argc, argv, 1, 7u, "dimension", 1u,
                                   topo::Hypercube::kMaxDimension);
  const std::uint64_t fc = positional_or<std::uint64_t>(
      argc, argv, 2, 9, "faults", 0, std::uint64_t{1} << n);
  const auto seed = positional_or<std::uint64_t>(argc, argv, 3, 5, "seed");

  const topo::Hypercube cube(n);
  const topo::HypercubeView view(cube);
  Xoshiro256ss rng(seed);
  const fault::FaultSet faults = fault::inject_uniform(cube, fc, rng);
  const auto levels = core::compute_safety_levels(cube, faults);
  const auto comps = analysis::connected_components(view, faults);

  // Every healthy node contributes value = its own id + 1; the all-reduce
  // target is the sum over its connected component.
  std::vector<std::uint64_t> value(
      static_cast<std::size_t>(cube.num_nodes()), 0);
  // Each node also tracks WHICH contributions its partial sum contains,
  // so rerouted fetches never double-count.
  std::vector<std::set<NodeId>> have(
      static_cast<std::size_t>(cube.num_nodes()));
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_healthy(a)) {
      value[a] = a + 1;
      have[a] = {a};
    }
  }

  std::printf("Q%u, %llu faults — butterfly all-reduce over %zu "
              "component(s)\n\n",
              n, static_cast<unsigned long long>(fc), comps.count());
  std::printf("%6s %10s %10s %8s\n", "round", "direct", "rerouted", "lost");

  for (Dim k = 0; k < n; ++k) {
    unsigned direct = 0, rerouted = 0, lost = 0;
    // Snapshot: classic butterfly semantics exchange the contribution
    // sets held at the START of the round.
    const auto have_snapshot = have;
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      const NodeId partner = cube.neighbor(a, k);
      if (faults.is_healthy(partner)) {
        ++direct;  // one-hop exchange over the healthy link
        for (const NodeId c : have_snapshot[partner]) {
          if (have[a].insert(c).second) value[a] += c + 1;
        }
        continue;
      }
      // The partner is dead: the opposite half's contributions must come
      // from its survivors directly. Fetch (via safety-level unicasts)
      // from every survivor over there whose contribution set still adds
      // something — more traffic than the single lost exchange, which is
      // exactly the degradation worth measuring.
      bool fetched = false;
      for (NodeId b = 0; b < cube.num_nodes(); ++b) {
        if (faults.is_faulty(b) || !bits::test(b ^ a, k)) continue;
        bool adds = false;
        for (const NodeId c : have_snapshot[b]) {
          if (!have[a].contains(c)) {
            adds = true;
            break;
          }
        }
        if (!adds) continue;
        const auto r = core::route_unicast(cube, faults, levels, b, a);
        if (!r.delivered()) continue;
        for (const NodeId c : have_snapshot[b]) {
          if (have[a].insert(c).second) value[a] += c + 1;
        }
        fetched = true;
      }
      if (fetched) {
        ++rerouted;
      } else {
        ++lost;  // nothing new reachable in the opposite half
      }
    }
    std::printf("%6u %10u %10u %8u\n", k, direct, rerouted, lost);
  }

  // Verification: inside each component every survivor must hold the
  // component-wide sum.
  std::vector<std::uint64_t> expected(comps.count(), 0);
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_healthy(a)) expected[comps.component[a]] += a + 1;
  }
  unsigned agree = 0, total = 0;
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_faulty(a)) continue;
    ++total;
    agree += value[a] == expected[comps.component[a]] ? 1u : 0u;
  }
  std::printf("\nsurvivors holding their component's full sum: %u/%u%s\n",
              agree, total,
              agree == total
                  ? "  (all-reduce complete)"
                  : "  (fault pattern broke subcube locality: partial "
                    "sums remain)");
  return 0;
}
