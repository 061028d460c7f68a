// slcube::obs — tail-sampled tracing for the serving layer: SamplingSink
// keeps full-fidelity tracing "always on" at a cost the hot path can
// afford. Every route is counted in a per-thread shard; the full causal
// event chain is retained (forwarded downstream) only when the route
// turns out to be interesting:
//
//   * anomalies — misroutes, drops, H+2 detours and stale-epoch
//     decisions (tail-based: the decision is made from the finished
//     route's summary, when the outcome is known);
//   * a deterministic 1-in-N head sample (route_id % head_every == 0) as
//     the unbiased control against which the anomalous tail is read.
//
// One integration path. The producer serves untraced and offer()s the
// route's summary; only when the route promotes does it re-serve the
// route traced and hand the regenerated chain to replay_chain(). That
// needs a producer whose re-run reproduces the chain bit for bit
// (workload::ServiceScript, or any serve against two immutable
// snapshots). Unpromoted routes — the overwhelming majority — never pay
// event construction, which is how the sampled path stays within a few
// percent of untraced throughput.
//
// Determinism contract: promotion is a pure function of the route
// summary and head_every, so the promoted route *set* (promoted_digest(),
// an order-independent fold) is bit-identical at any thread count.
//
// Concurrency contract: offer / replay_chain / on_event may be called
// from any number of threads. offer() touches only the calling thread's
// shard, without locking. Everything forwarded downstream — promoted
// chains with their summaries, unpromoted summaries, passthrough events —
// goes under one internal mutex, and a promoted chain plus its summary is
// one burst, so the downstream sink sees whole chains even when it is a
// shared LockedJsonlSink; the downstream sink must itself be thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "obs/trace.hpp"

namespace slcube::obs {

/// Why a route's full chain was retained.
enum class PromoteReason : std::uint8_t {
  kNone = 0,  ///< not promoted: counted only
  kHead,      ///< deterministic 1-in-N control sample
  kDrop,      ///< route dropped (lost to a ground fault)
  kDetour,    ///< delivered on the H+2 spare path
  kStale,     ///< decision epoch older than ground epoch
  kMisroute,  ///< diagnosis-attributed misroute
};
inline constexpr std::size_t kNumPromoteReasons = 6;
[[nodiscard]] const char* to_string(PromoteReason r);

/// What the caller knows about a finished route; the sampler's entire
/// promotion decision is a pure function of this struct (plus the head
/// modulus).
struct RouteSummary {
  std::uint64_t route_id = 0;
  std::uint64_t decision_epoch = 0;
  std::uint64_t ground_epoch = 0;
  const char* status = "";       ///< e.g. to_string(svc::ServeStatus)
  std::uint8_t status_code = 0;  ///< small code folded into the digest
  unsigned hops = 0;
  bool dropped = false;
  bool detour = false;
  bool misroute = false;
  double latency_us = -1.0;  ///< < 0 = not measured (ticks mode)
  [[nodiscard]] bool stale() const { return ground_epoch > decision_epoch; }
};

struct SamplingConfig {
  /// Promote route ids divisible by this as the unbiased control;
  /// 0 disables head sampling.
  std::uint32_t head_every = 1024;
  /// Also forward a RouteSummaryEvent (promoted=false) for routes that
  /// stay unpromoted, making the downstream stream self-describing at
  /// one event per route. Off for the <5%-overhead configuration.
  bool emit_breadcrumb_summaries = false;
};

/// See the file comment. `downstream` receives passthrough events,
/// promoted chains, and RouteSummaryEvents; it must be thread-safe when
/// the sampler is shared across threads.
class SamplingSink final : public TraceSink {
 public:
  explicit SamplingSink(TraceSink* downstream, SamplingConfig config = {});
  ~SamplingSink() override;

  /// Non-route events (epoch_publish, churn, GS rounds) forward straight
  /// downstream — between bursts, never inside one.
  void on_event(const TraceEvent& ev) override;

  struct Offer {
    PromoteReason reason = PromoteReason::kNone;
    /// True when the route promoted: the caller must regenerate the
    /// chain and call replay_chain().
    bool promoted = false;
  };
  /// Count the route and decide its promotion (forwarding its summary
  /// now when it stays unpromoted and emit_breadcrumb_summaries is on).
  [[nodiscard]] Offer offer(const RouteSummary& summary);

  /// Forward a regenerated chain + its summary downstream as one atomic
  /// burst. Only for routes offer() promoted.
  void replay_chain(const RouteSummary& summary, PromoteReason reason,
                    std::span<const TraceEvent> chain);

  struct Stats {
    std::uint64_t routes = 0;
    std::uint64_t promoted = 0;         ///< full chains forwarded
    std::uint64_t breadcrumb_only = 0;  ///< routes with no chain forwarded
    std::uint64_t promoted_by_reason[kNumPromoteReasons] = {};
  };
  /// Merged over all thread shards. Safe to call concurrently with
  /// serving; a route's counters become visible at its offer().
  [[nodiscard]] Stats stats() const;

  /// Order-independent fold (xor of a mix of id/status/hops/reason) over
  /// the promoted route set — the thread-invariance fingerprint gated in
  /// BENCH_SAMPLING.json.
  [[nodiscard]] std::uint64_t promoted_digest() const;

  /// The promotion rule as a pure function, in fixed order:
  /// misroute > drop > detour > stale > head.
  [[nodiscard]] static PromoteReason classify(const RouteSummary& s,
                                              const SamplingConfig& config);

 private:
  struct Shard;
  Shard& local_shard();

  SamplingConfig config_;
  TraceSink* downstream_;
  const std::uint64_t id_;  ///< never-reused, keys the thread-local cache
  mutable std::mutex mutex_;  ///< shard map + every downstream forward
  std::map<std::thread::id, std::unique_ptr<Shard>> shards_;
};

}  // namespace slcube::obs
