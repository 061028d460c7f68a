#include "svc/snapshot_oracle.hpp"

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace slcube::svc {

const char* to_string(ChurnRecord::Kind k) {
  switch (k) {
    case ChurnRecord::Kind::kNodeFail:
      return "node-fail";
    case ChurnRecord::Kind::kNodeRecover:
      return "node-recover";
    case ChurnRecord::Kind::kLinkFail:
      return "link-fail";
    case ChurnRecord::Kind::kLinkRecover:
      return "link-recover";
    case ChurnRecord::Kind::kRetarget:
      return "retarget";
  }
  SLC_UNREACHABLE("bad ChurnRecord::Kind");
}

namespace {

std::atomic<std::uint64_t> next_oracle_id{1};

}  // namespace

SnapshotOracle::SnapshotOracle(const topo::Hypercube& cube)
    : oracle_(cube), id_(next_oracle_id.fetch_add(1)) {
  publish();
  stats_ = {};  // epoch 0 is construction, not a churn event
}

SnapshotOracle::SnapshotOracle(const topo::Hypercube& cube,
                               const fault::FaultSet& faults,
                               const fault::LinkFaultSet& link_faults)
    : oracle_(cube, faults, link_faults),
      id_(next_oracle_id.fetch_add(1)) {
  publish();
  stats_ = {};
}

SnapshotPtr SnapshotOracle::acquire() const {
  // One-entry thread-local cache, same shape as the profiler's arena
  // cache. The handle is this thread's own shared_ptr to the snapshot
  // pointer: a hit hands out an alias of it, so its refcount increment
  // lands on a line no other thread writes unless a snapshot is shared.
  struct Slot {
    std::uint64_t oracle = 0;
    std::uint64_t epoch = 0;
    std::shared_ptr<const SnapshotPtr> handle;
  };
  thread_local Slot slot;
  if (slot.oracle != id_ ||
      slot.epoch != epoch_.load(std::memory_order_acquire)) {
    SnapshotPtr latest;
    {
      const std::lock_guard lock(mutex_);
      latest = current_;
    }
    slot.oracle = id_;
    slot.epoch = latest->epoch;
    slot.handle = std::make_shared<const SnapshotPtr>(std::move(latest));
  }
  return SnapshotPtr(slot.handle, slot.handle->get());
}

void SnapshotOracle::publish() {
  const obs::StageScope stage("svc.publish");
  // next_epoch_ is writer-private; construction publishes epoch 0.
  const std::uint64_t epoch = next_epoch_++;
  const std::uint64_t parent = epoch == 0 ? 0 : epoch - 1;
  auto snap = std::make_shared<const Snapshot>(
      Snapshot{epoch, parent, std::move(pending_), oracle_.faults(),
               oracle_.links(), oracle_.public_view(), oracle_.self_view()});
  pending_.clear();  // moved-from; make the empty state explicit
  const Snapshot& published = *snap;  // owned by current_ from the swap on
  // Publication order: snapshot pointer first, then the epoch probe.
  // A reader that observes epoch() == e is therefore guaranteed that
  // acquire() returns a snapshot with epoch >= e: a cache hit returns
  // exactly e, a miss copies current_ under the mutex released before e
  // was stored.
  {
    const std::lock_guard lock(mutex_);
    current_.swap(snap);
  }
  epoch_.store(epoch, std::memory_order_release);
  ++stats_.epochs_published;
  if (trace_ != nullptr) trace_->on_event(make_epoch_event(published));
  // `snap` now holds the superseded epoch; if no reader still holds it,
  // it is freed here, outside the lock.
}

obs::EpochPublishEvent make_epoch_event(const Snapshot& snap) {
  obs::EpochPublishEvent ev;
  ev.epoch = snap.epoch;
  ev.parent = snap.parent_epoch;
  ev.churn = snap.lineage.size();
  ev.faults = snap.faults.count();
  ev.links = snap.links.count();
  ev.ts = snap.epoch;
  if (snap.lineage.empty()) {
    ev.cause = "init";
  } else if (snap.lineage.size() > 1) {
    ev.cause = "batch";
  } else {
    const ChurnRecord& rec = snap.lineage.front();
    ev.cause = to_string(rec.kind);
    if (rec.kind != ChurnRecord::Kind::kRetarget) {
      ev.node = static_cast<std::int64_t>(rec.node);
      if (rec.kind == ChurnRecord::Kind::kLinkFail ||
          rec.kind == ChurnRecord::Kind::kLinkRecover) {
        ev.dim = static_cast<int>(rec.dim);
      }
    }
  }
  return ev;
}

void SnapshotOracle::add_fault(NodeId a) {
  oracle_.add_fault(a);
  pending_.push_back({ChurnRecord::Kind::kNodeFail, a, 0});
  publish();
}

void SnapshotOracle::remove_fault(NodeId a) {
  oracle_.remove_fault(a);
  pending_.push_back({ChurnRecord::Kind::kNodeRecover, a, 0});
  publish();
}

void SnapshotOracle::fail_link(NodeId a, Dim d) {
  oracle_.fail_link(a, d);
  pending_.push_back({ChurnRecord::Kind::kLinkFail, a, d});
  publish();
}

void SnapshotOracle::recover_link(NodeId a, Dim d) {
  oracle_.recover_link(a, d);
  pending_.push_back({ChurnRecord::Kind::kLinkRecover, a, d});
  publish();
}

void SnapshotOracle::apply(
    std::span<const NodeId> node_toggles,
    std::span<const core::EgsOracle::LinkToggle> link_toggles) {
  // A toggle flips membership: record the direction it landed on.
  for (const NodeId node : node_toggles) {
    const bool fails_now = !oracle_.faults().is_faulty(node);
    pending_.push_back({fails_now ? ChurnRecord::Kind::kNodeFail
                                  : ChurnRecord::Kind::kNodeRecover,
                        node, 0});
  }
  for (const auto& [node, dim] : link_toggles) {
    const bool fails_now = !oracle_.links().is_faulty(node, dim);
    pending_.push_back({fails_now ? ChurnRecord::Kind::kLinkFail
                                  : ChurnRecord::Kind::kLinkRecover,
                        node, dim});
  }
  oracle_.apply(node_toggles, link_toggles);
  publish();
}

void SnapshotOracle::retarget(const fault::FaultSet& target_faults,
                              const fault::LinkFaultSet& target_links) {
  oracle_.retarget(target_faults, target_links);
  pending_.push_back({ChurnRecord::Kind::kRetarget, 0, 0});
  publish();
}

}  // namespace slcube::svc
