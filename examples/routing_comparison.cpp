// Head-to-head on one random faulty cube: the safety-level router against
// all six baselines, on the same fault set and the same unicast pairs.
// Prints per-router delivery/optimality/traffic — the single-machine view
// of what bench_router_comparison sweeps systematically.
//
//   $ ./routing_comparison [dimension=7] [faults=10] [pairs=2000] [seed=1]
#include <iostream>
#include <memory>

#include "analysis/bfs.hpp"
#include "baselines/chiu_wu.hpp"
#include "baselines/dfs_backtrack.hpp"
#include "baselines/ecube.hpp"
#include "baselines/greedy_local.hpp"
#include "baselines/lee_hayes.hpp"
#include "baselines/safety_level_router.hpp"
#include "baselines/sidetrack.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "fault/injection.hpp"
#include "topology/topology_view.hpp"
#include "workload/metrics.hpp"
#include "workload/pair_sampler.hpp"

int main(int argc, char** argv) {
  using namespace slcube;
  const unsigned n = positional_or(argc, argv, 1, 7u, "dimension", 1u,
                                   topo::Hypercube::kMaxDimension);
  const std::uint64_t faults_count = positional_or<std::uint64_t>(
      argc, argv, 2, 10, "faults", 0, std::uint64_t{1} << n);
  const unsigned pairs = positional_or(argc, argv, 3, 2000u, "pairs");
  const auto seed = positional_or<std::uint64_t>(argc, argv, 4, 1, "seed");

  const topo::Hypercube cube(n);
  const topo::HypercubeView view(cube);
  Xoshiro256ss rng(seed);
  const fault::FaultSet faults =
      fault::inject_uniform(cube, faults_count, rng);

  std::vector<std::unique_ptr<routing::Router>> routers;
  routers.push_back(std::make_unique<baselines::SafetyLevelRouter>());
  routers.push_back(std::make_unique<baselines::LeeHayesRouter>());
  routers.push_back(std::make_unique<baselines::ChiuWuRouter>());
  routers.push_back(std::make_unique<baselines::DfsBacktrackRouter>());
  routers.push_back(std::make_unique<baselines::SidetrackRouter>(seed + 1));
  routers.push_back(std::make_unique<baselines::GreedyLocalRouter>());
  routers.push_back(std::make_unique<baselines::EcubeRouter>());

  std::vector<workload::RoutingMetrics> metrics(routers.size());
  for (auto& r : routers) r->prepare(cube, faults);

  for (unsigned p = 0; p < pairs; ++p) {
    const auto pair = workload::sample_uniform_pair(faults, rng);
    if (!pair) break;
    const auto dist = analysis::bfs_distances(view, faults, pair->s);
    const unsigned h = cube.distance(pair->s, pair->d);
    for (std::size_t i = 0; i < routers.size(); ++i) {
      metrics[i].record(routers[i]->route(pair->s, pair->d), h,
                        dist[pair->d]);
    }
  }

  // Built with += rather than chained operator+: GCC 12 emits a spurious
  // -Wrestrict for the temporary concatenation chain (PR105651).
  std::string title = "Q";
  title += std::to_string(n);
  title += ", ";
  title += std::to_string(faults_count);
  title += " uniform faults, ";
  title += std::to_string(pairs);
  title += " unicasts";
  Table table(std::move(title),
              {"router", "delivered%", "optimal%", "<=H+2%", "avg hops",
               "max hops", "refused%", "prep rounds"});
  for (std::size_t c = 1; c <= 6; ++c) table.set_precision(c, 2);
  for (std::size_t i = 0; i < routers.size(); ++i) {
    const auto& m = metrics[i];
    table.row() << std::string(routers[i]->name())
                << m.delivered.percent() << m.optimal.percent()
                << m.bound_h2.percent() << m.traffic.mean()
                << m.traffic.max() << m.refused.percent()
                << std::int64_t{routers[i]->prepare_rounds()};
  }
  table.print(std::cout);
  return 0;
}
