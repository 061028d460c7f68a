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

/// Judges every traversal against the ground snapshot. A live judge
/// (`oracle` set) starts from the decision snapshot, probes the epoch
/// before the launch and each traversal, and re-acquires only when it
/// moved; publish() stores the snapshot before the epoch, so the new
/// ground is at least that epoch. Only ground truth is consulted — the
/// decision snapshot already vouched for the hop.
struct SnapshotJudge {
  const SnapshotOracle* oracle;
  /// The current ground: the caller's snapshot or `hold`.
  const Snapshot* ground;
  /// Keeps a re-acquired ground epoch alive while it is judged; the
  /// previous one may be freed as soon as the next replaces it.
  SnapshotPtr hold{};
  std::uint32_t acquires = 0;

  const Snapshot& refresh() {
    if (oracle != nullptr && oracle->epoch() > ground->epoch) {
      hold = oracle->acquire();
      ground = hold.get();
      ++acquires;
    }
    return *ground;
  }

  std::optional<core::WalkEnd> launch(NodeId s) {
    if (refresh().faults.is_faulty(s)) return core::WalkEnd::kDroppedSource;
    return std::nullopt;
  }

  std::optional<core::WalkEnd> traverse(NodeId from, Dim dim, NodeId to) {
    const Snapshot& now = refresh();
    if (now.links.is_faulty(from, dim)) return core::WalkEnd::kDroppedLink;
    if (now.faults.is_faulty(to)) return core::WalkEnd::kDroppedNode;
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t epoch() const { return ground->epoch; }
};

/// Decisions come from `decision` only, through the same walker and EGS
/// view as core::route_unicast_egs (default lowest-dim tie-break), so
/// with ground == decision the result is bit-identical to the core
/// router; the snapshot judge adds the launch check and the drops.
ServeResult serve_walk(const topo::Hypercube& cube, const Snapshot& decision,
                       SnapshotJudge judge, NodeId s, NodeId d,
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
  ServeResult result;
  result.decision_epoch = decision.epoch;
  result.status = static_cast<ServeStatus>(
      core::with_observer(options.trace, [&](auto& observer) {
        return core::walk(view, judge, observer, s, d, result.decision,
                          result.path);
      }));
  result.ground_epoch = judge.epoch();
  result.ground_acquires = judge.acquires;
  return result;
}

}  // namespace

ServeResult serve_route(const Snapshot& decision, const Snapshot& ground,
                        NodeId s, NodeId d, const ServeOptions& options) {
  SLC_EXPECT_MSG(decision.links.cube().num_nodes() ==
                     ground.links.cube().num_nodes(),
                 "decision and ground snapshots must share a cube");
  return serve_walk(decision.links.cube(), decision, {nullptr, &ground}, s,
                    d, options);
}

ServeResult serve_route(const SnapshotOracle& oracle,
                        const SnapshotPtr& decision, NodeId s, NodeId d,
                        const ServeOptions& options) {
  SLC_EXPECT_MSG(decision != nullptr, "serve needs a decision snapshot");
  return serve_walk(oracle.cube(), *decision, {&oracle, decision.get()}, s,
                    d, options);
}

ServeResult serve_route(const SnapshotOracle& oracle, NodeId s, NodeId d,
                        const ServeOptions& options) {
  return serve_route(oracle, oracle.acquire(), s, d, options);
}

}  // namespace slcube::svc
