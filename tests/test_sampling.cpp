// obs::SamplingSink — the tail-sampling layer's load-bearing guarantees:
//
//  1. Promotion is a pure function of the route summary: the promoted
//     set — and therefore the order-independent digest — is
//     bit-identical across thread counts.
//  2. Anomalous routes (drop / detour / stale / misroute) are always
//     retained as full chains, each forwarded as one burst followed by
//     its summary — whole even while other threads forward.
#include "obs/sampling.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "obs/trace.hpp"
#include "workload/service_script.hpp"

namespace slcube::obs {
namespace {

/// Collects everything forwarded downstream, in arrival order.
class CollectSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override { events.push_back(ev); }
  std::vector<TraceEvent> events;
};

RouteSummary make_summary(std::uint64_t route_id, bool dropped = false,
                          bool detour = false, std::uint64_t lag = 0,
                          bool misroute = false) {
  RouteSummary s;
  s.route_id = route_id;
  s.decision_epoch = 10;
  s.ground_epoch = 10 + lag;
  s.status = dropped ? "dropped-stale" : "delivered-optimal";
  s.status_code = dropped ? 3 : 0;
  s.hops = 4;
  s.dropped = dropped;
  s.detour = detour;
  s.misroute = misroute;
  return s;
}

TraceEvent filler_hop(std::uint64_t i) {
  HopEvent hop;
  hop.from = static_cast<NodeId>(i);
  hop.to = static_cast<NodeId>(i + 1);
  return hop;
}

// --- classification --------------------------------------------------------

TEST(Sampling, ClassifyMostSpecificAnomalyWins) {
  const SamplingConfig cfg;
  EXPECT_EQ(SamplingSink::classify(make_summary(1, true, true, 2, true), cfg),
            PromoteReason::kMisroute);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, true, true, 2), cfg),
            PromoteReason::kDrop);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, false, true, 2), cfg),
            PromoteReason::kDetour);
  EXPECT_EQ(SamplingSink::classify(make_summary(1, false, false, 2), cfg),
            PromoteReason::kStale);
  EXPECT_EQ(SamplingSink::classify(make_summary(1), cfg),
            PromoteReason::kNone);
}

TEST(Sampling, ClassifyHeadSampleIsDeterministicModulo) {
  SamplingConfig cfg;
  cfg.head_every = 4;
  for (std::uint64_t id = 0; id < 12; ++id) {
    const PromoteReason want =
        id % 4 == 0 ? PromoteReason::kHead : PromoteReason::kNone;
    EXPECT_EQ(SamplingSink::classify(make_summary(id), cfg), want) << id;
  }
}

// --- offer / replay ---------------------------------------------------------

TEST(Sampling, PromotedRouteForwardsChainThenSummary) {
  CollectSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);

  const RouteSummary route = make_summary(7, true);
  const SamplingSink::Offer offer = sampler.offer(route);
  EXPECT_EQ(offer.reason, PromoteReason::kDrop);
  ASSERT_TRUE(offer.promoted);
  EXPECT_TRUE(sink.events.empty()) << "nothing forwards before the replay";
  const std::vector<TraceEvent> chain{filler_hop(0), filler_hop(1)};
  sampler.replay_chain(route, offer.reason, chain);

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<HopEvent>(sink.events[0]));
  EXPECT_TRUE(std::holds_alternative<HopEvent>(sink.events[1]));
  const auto* summary = std::get_if<RouteSummaryEvent>(&sink.events[2]);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->route_id, 7u);
  EXPECT_TRUE(summary->promoted);
  EXPECT_STREQ(summary->reason, "drop");

  const SamplingSink::Stats stats = sampler.stats();
  EXPECT_EQ(stats.routes, 1u);
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.breadcrumb_only, 0u);
  EXPECT_EQ(
      stats.promoted_by_reason[static_cast<std::size_t>(PromoteReason::kDrop)],
      1u);
  EXPECT_NE(sampler.promoted_digest(), 0u);
}

TEST(Sampling, UnpromotedRouteLeavesOnlyABreadcrumb) {
  // Counted only; with emit_breadcrumb_summaries its lone summary
  // (promoted=false) is the one trace of it downstream.
  for (const bool summaries : {false, true}) {
    CollectSink sink;
    SamplingConfig cfg;
    cfg.head_every = 0;
    cfg.emit_breadcrumb_summaries = summaries;
    SamplingSink sampler(&sink, cfg);

    const SamplingSink::Offer offer = sampler.offer(make_summary(3));
    EXPECT_EQ(offer.reason, PromoteReason::kNone);
    EXPECT_FALSE(offer.promoted);

    const SamplingSink::Stats stats = sampler.stats();
    EXPECT_EQ(stats.routes, 1u);
    EXPECT_EQ(stats.promoted, 0u);
    EXPECT_EQ(stats.breadcrumb_only, 1u);
    EXPECT_EQ(sampler.promoted_digest(), 0u);
    if (!summaries) {
      EXPECT_TRUE(sink.events.empty());
      continue;
    }
    ASSERT_EQ(sink.events.size(), 1u);
    const auto* summary = std::get_if<RouteSummaryEvent>(&sink.events[0]);
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->route_id, 3u);
    EXPECT_FALSE(summary->promoted);
    EXPECT_STREQ(summary->reason, "none");
  }
}

TEST(Sampling, PassthroughOutsideRoutesForwardsDirectly) {
  CollectSink sink;
  SamplingSink sampler(&sink, SamplingConfig{});
  EpochPublishEvent epoch;
  epoch.epoch = 42;
  sampler.on_event(epoch);
  ASSERT_EQ(sink.events.size(), 1u);
  const auto* forwarded = std::get_if<EpochPublishEvent>(&sink.events[0]);
  ASSERT_NE(forwarded, nullptr);
  EXPECT_EQ(forwarded->epoch, 42u);
  EXPECT_EQ(sampler.stats().routes, 0u);
}

/// Thread-safe downstream that stalls inside the first promoted burst:
/// on the chain's first hop it waits (bounded) for a passthrough event
/// to arrive, which can only happen mid-burst if passthrough forwarding
/// bypasses the burst lock.
class StallingSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override {
    std::unique_lock lock(mutex_);
    events_.push_back(ev);
    if (std::holds_alternative<EpochPublishEvent>(ev)) {
      passthrough_seen_ = true;
      cv_.notify_all();
    } else if (std::holds_alternative<HopEvent>(ev) && !stalled_) {
      stalled_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::milliseconds(300),
                   [&] { return passthrough_seen_; });
    }
  }
  /// Block (bounded) until a burst has stalled in on_event.
  bool wait_for_stall() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return stalled_; });
  }
  std::vector<TraceEvent> events() {
    const std::scoped_lock lock(mutex_);
    return events_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<TraceEvent> events_;
  bool stalled_ = false;
  bool passthrough_seen_ = false;
};

TEST(Sampling, PassthroughNeverSplitsAPromotedChain) {
  StallingSink sink;
  SamplingConfig cfg;
  cfg.head_every = 0;
  SamplingSink sampler(&sink, cfg);

  // This thread serves a route of its own first, so it is a registered
  // producer before the burst starts and only forwarding order is tested.
  EXPECT_FALSE(sampler.offer(make_summary(4)).promoted);
  const RouteSummary route = make_summary(5, true);
  std::thread producer([&] {
    const SamplingSink::Offer offer = sampler.offer(route);
    const std::vector<TraceEvent> chain{filler_hop(0), filler_hop(1),
                                        filler_hop(2)};
    sampler.replay_chain(route, offer.reason, chain);
  });
  ASSERT_TRUE(sink.wait_for_stall());
  EpochPublishEvent epoch;
  epoch.epoch = 9;
  sampler.on_event(epoch);  // from another thread, mid-burst
  producer.join();

  // The chain's hops are contiguous and immediately followed by their
  // summary; the passthrough event lands outside the burst.
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  std::vector<std::size_t> hops;
  std::size_t summary_at = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (std::holds_alternative<HopEvent>(events[i])) hops.push_back(i);
    if (std::holds_alternative<RouteSummaryEvent>(events[i])) summary_at = i;
  }
  ASSERT_EQ(hops.size(), 3u);
  for (std::size_t k = 1; k < hops.size(); ++k) {
    EXPECT_EQ(hops[k], hops[k - 1] + 1) << "passthrough split the chain";
  }
  EXPECT_EQ(summary_at, hops.back() + 1) << "summary not right after chain";
}

// --- thread-count invariance (the gated digest property) -------------------

std::uint64_t scripted_digest(const workload::ServiceScript& script,
                              std::uint64_t requests, unsigned nthreads,
                              SamplingSink::Stats* stats_out = nullptr) {
  NullSink null;
  SamplingConfig cfg;
  cfg.head_every = 64;
  SamplingSink sampler(&null, cfg);
  std::vector<std::thread> pool;
  std::uint64_t start = 0;
  for (unsigned t = 0; t < nthreads; ++t) {
    const std::uint64_t share =
        requests / nthreads + (t < requests % nthreads ? 1 : 0);
    pool.emplace_back([&, start, share] {
      std::vector<TraceEvent> chain;
      for (std::uint64_t i = start; i < start + share; ++i) {
        const auto req = script.request(i, requests);
        if (!req.has_pair) continue;
        const svc::ServeResult res = script.serve(req);
        const RouteSummary summary =
            workload::ServiceScript::summarize(req, res);
        const SamplingSink::Offer offer = sampler.offer(summary);
        if (offer.promoted) {
          chain.clear();
          class ChainSink final : public TraceSink {
           public:
            explicit ChainSink(std::vector<TraceEvent>& out) : out_(out) {}
            void on_event(const TraceEvent& ev) override {
              out_.push_back(ev);
            }

           private:
            std::vector<TraceEvent>& out_;
          } collector(chain);
          svc::ServeOptions opts;
          opts.trace = &collector;
          (void)script.serve(req, opts);
          sampler.replay_chain(summary, offer.reason, chain);
        }
      }
    });
    start += share;
  }
  for (auto& t : pool) t.join();
  if (stats_out != nullptr) *stats_out = sampler.stats();
  return sampler.promoted_digest();
}

TEST(Sampling, PromotedDigestIsThreadCountInvariant) {
  workload::ServiceScriptConfig cfg;
  cfg.dim = 7;
  cfg.epochs = 16;
  cfg.stale_chance = 0.05;
  const workload::ServiceScript script(cfg);
  const std::uint64_t requests = 4000;

  SamplingSink::Stats stats1;
  const std::uint64_t digest1 = scripted_digest(script, requests, 1, &stats1);
  ASSERT_NE(digest1, 0u);
  ASSERT_GT(stats1.promoted, 0u);

  for (const unsigned nthreads : {4u, 8u}) {
    SamplingSink::Stats stats;
    const std::uint64_t digest =
        scripted_digest(script, requests, nthreads, &stats);
    EXPECT_EQ(digest, digest1) << nthreads << " threads";
    EXPECT_EQ(stats.promoted, stats1.promoted) << nthreads << " threads";
    EXPECT_EQ(stats.routes, stats1.routes) << nthreads << " threads";
    EXPECT_EQ(stats.breadcrumb_only, stats1.breadcrumb_only)
        << nthreads << " threads";
  }
}

}  // namespace
}  // namespace slcube::obs
