#include "core/safety_oracle.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace slcube::core {

namespace {

/// Checked before the initial build reads `faults` against `cube`.
const fault::FaultSet& sized_for(const topo::Hypercube& cube,
                                 const fault::FaultSet& faults) {
  SLC_EXPECT_MSG(faults.num_nodes() == cube.num_nodes(),
                 "node fault set is for a different cube");
  return faults;
}

}  // namespace

SafetyOracle::SafetyOracle(const topo::Hypercube& cube)
    : cube_(cube),
      faults_(cube.num_nodes()),
      levels_(cube.dimension(), cube.num_nodes(),
              static_cast<Level>(cube.dimension())),
      queued_(static_cast<std::size_t>(cube.num_nodes()), 0) {}

SafetyOracle::SafetyOracle(const topo::Hypercube& cube,
                           const fault::FaultSet& faults,
                           unsigned build_threads)
    : cube_(cube),
      faults_(sized_for(cube, faults)),
      levels_(compute_safety_levels(cube, faults_, build_threads)),
      queued_(static_cast<std::size_t>(cube.num_nodes()), 0) {}

void SafetyOracle::push(NodeId a) {
  if (queued_[a] == 0 && faults_.is_healthy(a)) {
    queued_[a] = 1;
    worklist_.push_back(a);
  }
}

void SafetyOracle::cascade() {
  const obs::StageScope stage("oracle.cascade");
  // Safety valve: in one monotone phase each healthy node changes level
  // at most n times and is re-enqueued at most once per change of one of
  // its n inputs.
  const std::uint64_t hard_cap =
      cube_.num_nodes() * (cube_.dimension() + 1) * cube_.dimension() + 1;
  std::uint64_t steps = 0;
  const auto note_peak = [&] {
    stats_.worklist_peak =
        std::max<std::uint64_t>(stats_.worklist_peak, worklist_.size());
  };
  for (std::size_t head = 0; head < worklist_.size();) {
    SLC_ASSERT_MSG(++steps <= hard_cap, "oracle cascade failed to converge");
    const NodeId a = worklist_[head++];
    queued_[a] = 0;
    // Drop the consumed prefix once it is the larger half and past
    // kCompactAfter entries. The queue then holds at most its live entries
    // plus max(live, kCompactAfter), so at most 2N from Q10 up, since
    // queued_ admits each node once. Each compaction moves fewer entries
    // than were consumed since the last, so keeping the FIFO order costs
    // O(1) per pop, and small cascades never compact.
    if (head >= kCompactAfter && 2 * head > worklist_.size()) {
      note_peak();
      worklist_.erase(worklist_.begin(),
                      worklist_.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    if (faults_.is_faulty(a)) continue;  // died while queued (batch adds)
    const Level updated = implied_level(cube_, faults_, levels_, a);
    ++stats_.recomputes;
    if (updated == levels_[a]) continue;
    levels_[a] = updated;
    if (change_log_ != nullptr) change_log_->push_back(a);
    ++stats_.level_changes;
    cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
  }
  note_peak();
  worklist_.clear();
  ++stats_.cascades;
}

void SafetyOracle::add_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_healthy(a), "add_fault on an already-faulty node");
  const NodeId one[] = {a};
  apply(one);
}

void SafetyOracle::remove_fault(NodeId a) {
  SLC_EXPECT_MSG(faults_.is_faulty(a), "remove_fault on a healthy node");
  const NodeId one[] = {a};
  apply(one);
}

void SafetyOracle::apply(std::span<const NodeId> toggles) {
  const obs::StageScope stage("oracle.apply");
  if (toggles.empty()) return;
  // Partition into additions and removals. queued_ is all-zero between
  // cascades, so it doubles as the seen-mark that rejects a repeated id.
  std::vector<NodeId>& additions = additions_scratch_;
  std::vector<NodeId>& removals = removals_scratch_;
  additions.clear();
  removals.clear();
  for (const NodeId a : toggles) {
    SLC_EXPECT_MSG(cube_.contains(a),
                   "apply: toggle is not a node of the cube");
    SLC_EXPECT_MSG(queued_[a] == 0, "apply: node toggled twice in one batch");
    queued_[a] = 1;
    (faults_.is_healthy(a) ? additions : removals).push_back(a);
  }
  for (const NodeId a : toggles) queued_[a] = 0;

  // The one cascade-vs-rebuild decision. Past the crossover a from-
  // scratch GS is cheaper — same fixed point either way. Accounting
  // contract: a rebuild bumps `rebuilds` only, so the cascade counters
  // keep counting incremental work exclusively, and it logs every node
  // so change-log consumers resync fully (a rebuild is O(N·n) already).
  if (toggles.size() * kRetargetRebuildFactor >= cube_.num_nodes()) {
    for (const NodeId a : additions) faults_.mark_faulty(a);
    for (const NodeId a : removals) faults_.mark_healthy(a);
    levels_ = compute_safety_levels(cube_, faults_);
    ++stats_.rebuilds;
    if (change_log_ != nullptr) {
      for (NodeId a = 0; a < cube_.num_nodes(); ++a) {
        change_log_->push_back(a);
      }
    }
    return;
  }
  // Falling phase: all additions at once, then one cascade.
  if (!additions.empty()) {
    for (const NodeId a : additions) {
      faults_.mark_faulty(a);
      levels_[a] = 0;
      if (change_log_ != nullptr) change_log_->push_back(a);
    }
    for (const NodeId a : additions) {
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
  // Rising phase: all removals at once, then one cascade. A newcomer
  // still holds level 0, which is exactly what its neighbors' implied
  // levels already price in (faulty nodes read 0), so the state sits
  // pointwise below the new fixed point and the cascade rises
  // monotonically from the newcomers outward.
  if (!removals.empty()) {
    for (const NodeId a : removals) faults_.mark_healthy(a);
    for (const NodeId a : removals) {
      push(a);
      cube_.for_each_neighbor(a, [&](Dim, NodeId b) { push(b); });
    }
    cascade();
  }
}

void SafetyOracle::retarget(const fault::FaultSet& target) {
  const obs::StageScope stage("oracle.retarget");
  SLC_EXPECT(target.num_nodes() == faults_.num_nodes());
  // Word-at-a-time symmetric difference into reusable scratch: O(N/64)
  // xor + bit scans instead of N is_faulty probes per retarget.
  std::vector<NodeId>& toggles = toggles_scratch_;
  toggles.clear();
  const auto& have = faults_.words();
  const auto& want = target.words();
  for (std::size_t w = 0; w < have.size(); ++w) {
    bits::for_each_set64(have[w] ^ want[w], [&](unsigned b) {
      toggles.push_back(static_cast<NodeId>(w * 64 + b));
    });
  }
  apply(toggles);
}

}  // namespace slcube::core
