#include "obs/sampling.hpp"

#include <atomic>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace slcube::obs {

const char* to_string(PromoteReason r) {
  switch (r) {
    case PromoteReason::kNone:
      return "none";
    case PromoteReason::kHead:
      return "head";
    case PromoteReason::kDrop:
      return "drop";
    case PromoteReason::kDetour:
      return "detour";
    case PromoteReason::kStale:
      return "stale";
    case PromoteReason::kMisroute:
      return "misroute";
  }
  SLC_UNREACHABLE("bad PromoteReason");
}

namespace {

std::atomic<std::uint64_t> next_sampler_id{1};

/// Single-entry thread-local cache, keyed by the sink's never-reused id
/// so a pointer into a destroyed sampler can only miss (same idiom as
/// the metrics registry's shard cache).
struct SamplerCache {
  std::uint64_t sink_id = 0;
  void* shard = nullptr;
};
thread_local SamplerCache tl_sampler_cache;

std::uint64_t digest_mix(const RouteSummary& s, PromoteReason reason) {
  const std::uint64_t key =
      s.route_id * 0x9e3779b97f4a7c15ull ^
      (static_cast<std::uint64_t>(s.status_code) << 32) ^
      (static_cast<std::uint64_t>(s.hops & 0xFFFFu) << 40) ^
      (static_cast<std::uint64_t>(reason) << 56);
  return SplitMix64(key).next();
}

RouteSummaryEvent summary_event(const RouteSummary& s, PromoteReason reason) {
  return RouteSummaryEvent{s.route_id,     s.decision_epoch,
                           s.ground_epoch, s.status,
                           s.hops,         s.latency_us,
                           /*promoted=*/reason != PromoteReason::kNone,
                           to_string(reason)};
}

}  // namespace

/// One thread's counters. The owner thread writes them on every route
/// without locking; stats() and promoted_digest() read them concurrently
/// (each counter is individually exact; a quiescent read — post-join, as
/// in tests and the bench collectors — is exact as a whole). Cache-line
/// aligned so two threads' shards never share a line.
struct alignas(64) SamplingSink::Shard {
  /// Routes by decided reason; [kNone] is the unpromoted remainder.
  std::atomic<std::uint64_t> by_reason[kNumPromoteReasons] = {};
  std::atomic<std::uint64_t> digest{0};
};

SamplingSink::SamplingSink(TraceSink* downstream, SamplingConfig config)
    : config_(config),
      downstream_(downstream),
      id_(next_sampler_id.fetch_add(1)) {
  SLC_EXPECT(downstream_ != nullptr);
}

SamplingSink::~SamplingSink() {
  if (tl_sampler_cache.sink_id == id_) tl_sampler_cache = {};
}

SamplingSink::Shard& SamplingSink::local_shard() {
  if (tl_sampler_cache.sink_id == id_) {
    return *static_cast<Shard*>(tl_sampler_cache.shard);
  }
  const std::scoped_lock lock(mutex_);
  auto& slot = shards_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<Shard>();
  tl_sampler_cache = {id_, slot.get()};
  return *slot;
}

void SamplingSink::on_event(const TraceEvent& ev) {
  // Under the burst mutex: a passthrough event from one thread must not
  // land between the lines of another thread's promoted chain.
  const std::scoped_lock burst(mutex_);
  downstream_->on_event(ev);
}

SamplingSink::Offer SamplingSink::offer(const RouteSummary& summary) {
  Shard& shard = local_shard();
  const PromoteReason reason = classify(summary, config_);
  // Owner-only updates: plain load+store pairs, not RMWs — there is
  // nothing to contend with.
  auto& count = shard.by_reason[static_cast<std::size_t>(reason)];
  count.store(count.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  if (reason != PromoteReason::kNone) {
    shard.digest.store(shard.digest.load(std::memory_order_relaxed) ^
                           digest_mix(summary, reason),
                       std::memory_order_relaxed);
    return Offer{reason, true};
  }
  if (config_.emit_breadcrumb_summaries) {
    const std::scoped_lock burst(mutex_);
    downstream_->on_event(summary_event(summary, reason));
  }
  return Offer{reason, false};
}

void SamplingSink::replay_chain(const RouteSummary& summary,
                                PromoteReason reason,
                                std::span<const TraceEvent> chain) {
  SLC_EXPECT_MSG(reason != PromoteReason::kNone,
                 "replay_chain for a route offer() did not promote");
  // One burst per promotion: downstream sees whole chains even when
  // several threads promote at once.
  const std::scoped_lock burst(mutex_);
  for (const TraceEvent& ev : chain) downstream_->on_event(ev);
  downstream_->on_event(summary_event(summary, reason));
}

PromoteReason SamplingSink::classify(const RouteSummary& s,
                                     const SamplingConfig& config) {
  // Most-specific anomaly wins: a misroute is usually also a drop, and a
  // drop under churn is usually also stale — the reason names the
  // sharpest cause so per-reason tallies stay interpretable.
  if (s.misroute) return PromoteReason::kMisroute;
  if (s.dropped) return PromoteReason::kDrop;
  if (s.detour) return PromoteReason::kDetour;
  if (s.stale()) return PromoteReason::kStale;
  if (config.head_every != 0 && s.route_id % config.head_every == 0) {
    return PromoteReason::kHead;
  }
  return PromoteReason::kNone;
}

SamplingSink::Stats SamplingSink::stats() const {
  Stats out;
  const std::scoped_lock lock(mutex_);
  for (const auto& [tid, shard] : shards_) {
    out.breadcrumb_only += shard->by_reason[0].load(std::memory_order_relaxed);
    for (std::size_t r = 1; r < kNumPromoteReasons; ++r) {
      const std::uint64_t n =
          shard->by_reason[r].load(std::memory_order_relaxed);
      out.promoted_by_reason[r] += n;
      out.promoted += n;
    }
  }
  out.routes = out.promoted + out.breadcrumb_only;
  return out;
}

std::uint64_t SamplingSink::promoted_digest() const {
  std::uint64_t digest = 0;
  const std::scoped_lock lock(mutex_);
  for (const auto& [tid, shard] : shards_) {
    digest ^= shard->digest.load(std::memory_order_relaxed);
  }
  return digest;
}

}  // namespace slcube::obs
