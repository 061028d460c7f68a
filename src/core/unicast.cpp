#include "core/unicast.hpp"

#include <array>

#include "core/walk.hpp"
#include "obs/profiler.hpp"

namespace slcube::core {

const char* to_string(RouteStatus s) {
  switch (s) {
    case RouteStatus::kDeliveredOptimal:
      return "delivered-optimal";
    case RouteStatus::kDeliveredSuboptimal:
      return "delivered-suboptimal";
    case RouteStatus::kSourceRefused:
      return "source-refused";
    case RouteStatus::kStuck:
      return "stuck";
  }
  SLC_UNREACHABLE("bad RouteStatus");
}

namespace {

/// Among the dimensions selected from `nav` by ForEach, find those whose
/// neighbor level is maximal; break ties by option. Returns nullopt when
/// the maximal level is 0 (all candidates faulty) or there are none.
template <typename ForEach>
std::optional<Dim> argmax_level(const UnicastOptions& options,
                                unsigned* ties_out, ForEach&& for_each) {
  std::array<Dim, topo::Hypercube::kMaxDimension> best{};
  std::size_t ties = 0;
  int best_level = 0;  // level 0 == faulty is never a valid choice
  for_each([&](Dim d, Level level) {
    if (static_cast<int>(level) > best_level) {
      best_level = level;
      best[0] = d;
      ties = 1;
    } else if (level == best_level && best_level > 0) {
      best[ties++] = d;
    }
  });
  if (ties_out != nullptr) *ties_out = static_cast<unsigned>(ties);
  if (ties == 0) return std::nullopt;
  if (options.tie_break == TieBreak::kLowestDim || ties == 1) {
    return best[0];  // candidates are generated low-dimension-first
  }
  SLC_EXPECT_MSG(options.rng != nullptr,
                 "TieBreak::kRandom requires UnicastOptions::rng");
  return best[options.rng->below(ties)];
}

}  // namespace

SourceDecision decide_at_source(const topo::Hypercube& cube,
                                const SafetyLevels& levels, NodeId s,
                                NodeId d) {
  SLC_EXPECT_MSG(levels.size() == cube.num_nodes(),
                 "level table is for a different cube");
  SourceDecision dec;
  const std::uint32_t nav = cube.navigation_vector(s, d);
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {  // s == d: trivially "optimal", nothing to send
    dec.c1 = true;
    return dec;
  }
  dec.c1 = levels[s] >= dec.hamming;
  cube.for_each_preferred(s, nav, [&](Dim, NodeId b) {
    dec.c2 |= levels[b] + 1u >= dec.hamming;  // level >= H - 1, unsigned-safe
  });
  cube.for_each_spare(s, nav, [&](Dim, NodeId b) {
    dec.c3 |= levels[b] >= dec.hamming + 1u;
  });
  return dec;
}

std::optional<Dim> choose_preferred(const topo::Hypercube& cube,
                                    const SafetyLevels& levels, NodeId a,
                                    std::uint32_t nav,
                                    const UnicastOptions& options,
                                    unsigned* ties_out) {
  return argmax_level(options, ties_out, [&](auto&& visit) {
    cube.for_each_preferred(a, nav,
                            [&](Dim d, NodeId b) { visit(d, levels[b]); });
  });
}

std::optional<Dim> choose_spare(const topo::Hypercube& cube,
                                const SafetyLevels& levels, NodeId a,
                                std::uint32_t nav,
                                const UnicastOptions& options,
                                unsigned* ties_out) {
  const unsigned h = bits::popcount(nav);
  const auto pick = argmax_level(options, ties_out, [&](auto&& visit) {
    cube.for_each_spare(a, nav,
                        [&](Dim d, NodeId b) { visit(d, levels[b]); });
  });
  if (!pick) return std::nullopt;
  if (levels[cube.neighbor(a, *pick)] < h + 1u) return std::nullopt;
  return pick;
}

RouteResult route_unicast(const topo::Hypercube& cube,
                          const fault::FaultSet& faults,
                          const SafetyLevels& levels, NodeId s, NodeId d,
                          const UnicastOptions& options) {
  const obs::StageScope stage("route");
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  return walk_route(PlainView<>{cube, levels, options}, s, d, options.trace);
}

RouteResult route_unicast_greedy(const topo::Hypercube& cube,
                                 const fault::FaultSet& faults,
                                 const SafetyLevels& levels, NodeId s,
                                 NodeId d, const UnicastOptions& options) {
  const obs::StageScope stage("route.greedy");
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  return walk_route(PlainView</*SkipFeasibility=*/true>{cube, levels, options},
                    s, d, options.trace);
}

}  // namespace slcube::core
