// svc — the serving path: route one unicast whose *decisions* come from
// an immutable epoch snapshot while its *traversal* is judged against
// the live (possibly newer) epoch.
//
// This is the paper's stale-table story made operational. A message's
// routing decisions (C1/C2/C3 at the source, max-level preferred /
// spare choices at every hop — exactly the Section-3/4.1 algorithm of
// core::route_unicast_egs) are functions of the table the router
// stabilized on, i.e. the snapshot it acquired. Whether a hop actually
// lands is a property of the *current* network: a node or link that
// failed after the snapshot was published kills the message at that hop
// even though the stale table said it was safe. serve_route() separates
// the two roles cleanly:
//
//   decision snapshot — feasibility + every hop choice (never consulted
//     for liveness of the traversal);
//   ground truth      — starts as the decision snapshot; before the
//     launch and before every hop the live walk probes the published
//     epoch and re-acquires the latest snapshot only when the epoch has
//     moved. A hop onto a ground-faulty node or across a ground-faulty
//     link drops the message.
//
// Both roles plug into the one forwarding loop, core::walk (walk.hpp):
// the decision snapshot is its EGS view, the ground truth its judge.
// When ground == decision (no churn since acquire) the walk reproduces
// core::route_unicast_egs bit-for-bit — same status, same path, same
// event chain — which test_snapshot_oracle and test_route_equivalence
// pin. When they differ, the result records how
// far behind the decision epoch was and what the staleness cost:
// delivered anyway, delivered on the H+2 spare detour, or dropped.
#pragma once

#include <cstdint>

#include "analysis/path.hpp"
#include "core/egs.hpp"
#include "obs/trace.hpp"
#include "svc/snapshot_oracle.hpp"

namespace slcube::svc {

enum class ServeStatus : std::uint8_t {
  kDeliveredOptimal,     ///< landed in exactly H hops
  kDeliveredSuboptimal,  ///< landed in exactly H + 2 hops (spare detour)
  kRefused,              ///< C1/C2/C3 all failed on the decision snapshot
  kStuck,                ///< decision-table dead end (impossible when the
                         ///< snapshot is a true fixed point — audited)
  kDroppedSource,        ///< source already dead in the live epoch
  kDroppedNode,          ///< a hop landed on a node faulty in the live epoch
  kDroppedLink,          ///< a hop crossed a link faulty in the live epoch
};

[[nodiscard]] const char* to_string(ServeStatus s);

struct ServeResult {
  ServeStatus status = ServeStatus::kRefused;
  /// Feasibility flags as decided on the decision snapshot.
  core::SourceDecision decision;
  /// Nodes actually visited, source first: complete on delivery, cut at
  /// the last node reached on a drop, {s} on refusal.
  analysis::Path path;
  std::uint64_t decision_epoch = 0;
  /// Highest epoch consulted as ground truth during the walk (epochs are
  /// published in increasing order, so this is simply the last one).
  std::uint64_t ground_epoch = 0;
  /// Ground snapshots the live walk re-acquired because the epoch moved:
  /// 0 for the deterministic overload and for a live route during which
  /// nothing newer than its decision snapshot was published.
  std::uint32_t ground_acquires = 0;

  [[nodiscard]] bool delivered() const noexcept {
    return status == ServeStatus::kDeliveredOptimal ||
           status == ServeStatus::kDeliveredSuboptimal;
  }
  [[nodiscard]] bool dropped() const noexcept {
    return status == ServeStatus::kDroppedSource ||
           status == ServeStatus::kDroppedNode ||
           status == ServeStatus::kDroppedLink;
  }
  /// The route was decided on an epoch older than the ground truth it
  /// ran against — the measured form of the paper's stale-table regime.
  [[nodiscard]] bool stale() const noexcept {
    return ground_epoch > decision_epoch;
  }
  [[nodiscard]] unsigned hops() const noexcept {
    return static_cast<unsigned>(path.size() - 1);
  }
};

struct ServeOptions {
  /// When non-null, the walk emits the same event chain as
  /// route_unicast_egs (source decision, hops, terminal status) — with
  /// the sim dialect's send/drop/"lost" events on a staleness drop, so
  /// obs::AuditSink checks the serving path with its strictest rules on
  /// intact routes and its in-flight-death rules on dropped ones.
  obs::TraceSink* trace = nullptr;
};

/// Deterministic core: decisions on `decision`, every traversal judged
/// against the fixed `ground`. Both may be the same snapshot (the
/// no-churn case). `s` and `d` must be healthy in `decision` — routes
/// are planned by nodes that believe both endpoints exist.
[[nodiscard]] ServeResult serve_route(const Snapshot& decision,
                                      const Snapshot& ground, NodeId s,
                                      NodeId d,
                                      const ServeOptions& options = {});

/// Live serving: acquires the decision snapshot once and judges against
/// it; before the launch and every hop it probes oracle.epoch() and
/// re-acquires the latest snapshot only when the epoch has moved — a
/// writer publishing mid-route is observed exactly the way a real network
/// observes mid-flight faults, and a quiet route makes one acquire.
[[nodiscard]] ServeResult serve_route(const SnapshotOracle& oracle, NodeId s,
                                      NodeId d,
                                      const ServeOptions& options = {});

/// Live serving against a pre-acquired decision snapshot (readers that
/// batch many requests per acquire). The decision snapshot is the first
/// ground; the epoch probe re-acquires at launch if it is already stale.
[[nodiscard]] ServeResult serve_route(const SnapshotOracle& oracle,
                                      const SnapshotPtr& decision, NodeId s,
                                      NodeId d,
                                      const ServeOptions& options = {});

}  // namespace slcube::svc
