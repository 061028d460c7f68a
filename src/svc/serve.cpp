#include "svc/serve.hpp"

#include <optional>

#include "common/contracts.hpp"
#include "core/walk.hpp"
#include "obs/profiler.hpp"

namespace slcube::svc {

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kDeliveredOptimal:
      return "delivered-optimal";
    case ServeStatus::kDeliveredSuboptimal:
      return "delivered-suboptimal";
    case ServeStatus::kRefused:
      return "source-refused";
    case ServeStatus::kStuck:
      return "stuck";
    case ServeStatus::kDroppedSource:
      return "dropped-source";
    case ServeStatus::kDroppedNode:
      return "dropped-node";
    case ServeStatus::kDroppedLink:
      return "dropped-link";
  }
  return "unknown";
}

namespace {

/// Judges every traversal against the ground truth `ground_of()` yields:
/// the live overloads re-acquire per call, the deterministic overload
/// always returns the same snapshot. Only ground truth is consulted — the
/// decision snapshot already vouched for the hop.
template <typename GroundFn>
struct SnapshotJudge {
  GroundFn& ground_of;
  /// Highest epoch consulted so far (epochs are published in order).
  std::uint64_t ground_epoch = 0;

  std::optional<core::WalkEnd> launch(NodeId s) {
    const Snapshot& ground = ground_of();
    ground_epoch = ground.epoch;
    if (ground.faults.is_faulty(s)) return core::WalkEnd::kDroppedSource;
    return std::nullopt;
  }

  std::optional<core::WalkEnd> traverse(NodeId from, Dim dim, NodeId to) {
    const Snapshot& ground = ground_of();
    ground_epoch = ground.epoch;
    if (ground.links.is_faulty(from, dim)) return core::WalkEnd::kDroppedLink;
    if (ground.faults.is_faulty(to)) return core::WalkEnd::kDroppedNode;
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t epoch() const { return ground_epoch; }
};

/// Decisions come from `decision` only, through the same walker and EGS
/// view as core::route_unicast_egs (default lowest-dim tie-break), so
/// with ground == decision the result is bit-identical to the core
/// router; the snapshot judge adds the launch check and the drops.
template <typename GroundFn>
ServeResult serve_walk(const topo::Hypercube& cube, const Snapshot& decision,
                       GroundFn&& ground_of, NodeId s, NodeId d,
                       const ServeOptions& options) {
  const obs::StageScope stage("svc.serve");
  SLC_EXPECT_MSG(decision.faults.is_healthy(s),
                 "serve source must be healthy in the decision snapshot");
  SLC_EXPECT_MSG(decision.faults.is_healthy(d),
                 "serve destination must be healthy in the decision snapshot");
  static_assert(static_cast<int>(ServeStatus::kRefused) ==
                    static_cast<int>(core::WalkEnd::kRefused) &&
                static_cast<int>(ServeStatus::kDroppedLink) ==
                    static_cast<int>(core::WalkEnd::kDroppedLink));

  const core::UnicastOptions lowest_dim{};
  const core::EgsView view{cube, decision.links, decision.views(),
                           lowest_dim};
  SnapshotJudge<GroundFn> judge{ground_of};
  ServeResult result;
  result.decision_epoch = decision.epoch;
  result.status = static_cast<ServeStatus>(
      core::with_observer(options.trace, [&](auto& observer) {
        return core::walk(view, judge, observer, s, d, result.decision,
                          result.path);
      }));
  result.ground_epoch = judge.ground_epoch;
  return result;
}

}  // namespace

ServeResult serve_route(const Snapshot& decision, const Snapshot& ground,
                        NodeId s, NodeId d, const ServeOptions& options) {
  SLC_EXPECT_MSG(decision.links.cube().num_nodes() ==
                     ground.links.cube().num_nodes(),
                 "decision and ground snapshots must share a cube");
  const topo::Hypercube& cube = decision.links.cube();
  return serve_walk(
      cube, decision, [&]() -> const Snapshot& { return ground; }, s, d,
      options);
}

ServeResult serve_route(const SnapshotOracle& oracle,
                        const SnapshotPtr& decision, NodeId s, NodeId d,
                        const ServeOptions& options) {
  SLC_EXPECT_MSG(decision != nullptr, "serve needs a decision snapshot");
  // `hold` keeps each re-acquired ground epoch alive across its check;
  // the previous epoch may be freed as soon as the next one replaces it.
  SnapshotPtr hold;
  return serve_walk(
      oracle.cube(), *decision,
      [&]() -> const Snapshot& {
        hold = oracle.acquire();
        return *hold;
      },
      s, d, options);
}

ServeResult serve_route(const SnapshotOracle& oracle, NodeId s, NodeId d,
                        const ServeOptions& options) {
  return serve_route(oracle, oracle.acquire(), s, d, options);
}

}  // namespace slcube::svc
