#include "load.hpp"

#include "common/rng.hpp"
#include "fault/injection.hpp"

namespace slbench {

using slcube::Xoshiro256ss;

Shape shape_of(Workload w, bool small) {
  switch (w) {
    case Workload::kServeRead:
      return Shape{small ? 10u : 16u, 0.02, 3, 50, 0};
    case Workload::kChurnWrite:
      return Shape{small ? 11u : 18u, 0.01, 3, 1000, 0};
    case Workload::kMegaBurst:
      return Shape{small ? 12u : 20u, 0.02, 1, 0, 64};
  }
  return {};
}

namespace {

/// Independent generator per input stream, so adding draws to one
/// stream never shifts another.
Xoshiro256ss stream(std::uint64_t seed, std::uint64_t k) {
  slcube::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ull * (k + 1)));
  return Xoshiro256ss(mix.next());
}

/// Faulty nodes as a swap-remove list, for O(1) uniform repair picks.
struct NodeChurn {
  std::vector<NodeId> faulty;
  std::vector<std::uint32_t> slot;  ///< position in `faulty`, by node

  void add(NodeId a) {
    slot[a] = static_cast<std::uint32_t>(faulty.size());
    faulty.push_back(a);
  }
  void remove(NodeId a) {
    const NodeId last = faulty.back();
    faulty[slot[a]] = last;
    slot[last] = slot[a];
    faulty.pop_back();
  }
};

}  // namespace

Inputs generate(const Shape& shape, std::uint64_t seed, unsigned seconds) {
  Inputs in;
  in.cube = slcube::topo::Hypercube(shape.dim);
  const std::uint64_t n_nodes = in.cube.num_nodes();
  const unsigned n = shape.dim;

  Xoshiro256ss fault_rng = stream(seed, 0);
  const auto node_target = static_cast<std::uint64_t>(
      shape.node_fault_share * static_cast<double>(n_nodes) + 0.5);
  in.faults = slcube::fault::inject_uniform(in.cube, node_target, fault_rng);
  in.links = slcube::fault::inject_links_uniform(in.cube, 2ull * n, fault_rng);

  Xoshiro256ss pool_rng = stream(seed, 1);
  std::vector<std::uint8_t> is_endpoint(static_cast<std::size_t>(n_nodes), 0);
  for (NodeId a = 0; a < n_nodes; ++a) {
    if (in.faults.is_healthy(a) && pool_rng.chance(0.25)) {
      is_endpoint[a] = 1;
      in.endpoints.push_back(a);
    }
  }
  const auto churnable = [&](NodeId a) { return is_endpoint[a] == 0; };

  Xoshiro256ss script_rng = stream(seed, 2);
  if (shape.epochs_per_s > 0) {
    // Open-loop single-event churn. The repair policy holds both
    // densities at their start values: below target the next event of
    // that kind fails, above it repairs, at target a coin decides.
    NodeChurn nodes;
    nodes.slot.assign(static_cast<std::size_t>(n_nodes), 0);
    in.faults.for_each_faulty([&](NodeId a) { nodes.add(a); });
    slcube::fault::FaultSet faults = in.faults;
    slcube::fault::LinkFaultSet links = in.links;
    std::vector<std::pair<NodeId, Dim>> faulty_links = links.faulty_links();
    const std::size_t link_target = faulty_links.size();
    const std::uint64_t events =
        static_cast<std::uint64_t>(shape.epochs_per_s) * seconds;
    in.script.reserve(static_cast<std::size_t>(events));
    for (std::uint64_t e = 0; e < events; ++e) {
      ChurnEvent ev;
      if (script_rng.chance(0.5)) {
        const std::uint64_t count = nodes.faulty.size();
        const bool repair = count > node_target ||
                            (count == node_target && script_rng.chance(0.5));
        if (repair && count > 0) {
          const NodeId back = nodes.faulty[script_rng.below(count)];
          nodes.remove(back);
          ev = {ChurnEvent::Kind::kNodeRecover, back, 0};
        } else {
          NodeId victim = 0;
          do {
            victim = static_cast<NodeId>(script_rng.below(n_nodes));
          } while (faults.is_faulty(victim) || !churnable(victim));
          nodes.add(victim);
          ev = {ChurnEvent::Kind::kNodeFail, victim, 0};
        }
      } else {
        const std::size_t count = faulty_links.size();
        const bool repair = count > link_target ||
                            (count == link_target && script_rng.chance(0.5));
        if (repair && count > 0) {
          const auto pick = static_cast<std::size_t>(script_rng.below(count));
          const auto [a, d] = faulty_links[pick];
          faulty_links[pick] = faulty_links.back();
          faulty_links.pop_back();
          ev = {ChurnEvent::Kind::kLinkRecover, a, d};
        } else {
          NodeId a = 0;
          Dim d = 0;
          do {
            a = static_cast<NodeId>(script_rng.below(n_nodes));
            d = static_cast<Dim>(script_rng.below(n));
          } while (links.is_faulty(a, d));
          faulty_links.emplace_back(a, d);
          ev = {ChurnEvent::Kind::kLinkFail, a, d};
        }
      }
      apply_event(ev, faults, links);
      in.script.push_back(ev);
    }
  } else {
    // Closed-loop bursts: each fails N/burst_divisor healthy churnable
    // nodes of the start configuration at once; its repair restores it.
    const std::uint64_t burst = n_nodes / shape.burst_divisor;
    std::vector<std::uint8_t> taken(static_cast<std::size_t>(n_nodes), 0);
    in.bursts.resize(kMaxBurstCycles);
    for (auto& victims : in.bursts) {
      victims.reserve(static_cast<std::size_t>(burst));
      while (victims.size() < burst) {
        const auto a = static_cast<NodeId>(script_rng.below(n_nodes));
        if (taken[a] == 0 && in.faults.is_healthy(a) && churnable(a)) {
          taken[a] = 1;
          victims.push_back(a);
        }
      }
      for (const NodeId a : victims) taken[a] = 0;
    }
  }

  // One long uniform pair stream; readers walk disjoint offsets of it.
  Xoshiro256ss pair_rng = stream(seed, 3);
  constexpr std::size_t kPairs = std::size_t{1} << 20;
  in.pairs.reserve(kPairs);
  const std::uint64_t pool = in.endpoints.size();
  while (in.pairs.size() < kPairs) {
    const NodeId s = in.endpoints[pair_rng.below(pool)];
    const NodeId d = in.endpoints[pair_rng.below(pool)];
    if (s != d) in.pairs.push_back({s, d});
  }
  return in;
}

void apply_event(const ChurnEvent& ev, slcube::fault::FaultSet& faults,
                 slcube::fault::LinkFaultSet& links) {
  switch (ev.kind) {
    case ChurnEvent::Kind::kNodeFail:
      faults.mark_faulty(ev.node);
      break;
    case ChurnEvent::Kind::kNodeRecover:
      faults.mark_healthy(ev.node);
      break;
    case ChurnEvent::Kind::kLinkFail:
      links.mark_faulty(ev.node, ev.dim);
      break;
    case ChurnEvent::Kind::kLinkRecover:
      links.mark_healthy(ev.node, ev.dim);
      break;
  }
}

}  // namespace slbench
