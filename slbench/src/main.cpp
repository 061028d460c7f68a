// slbench — the repo benchmark for the safety-level service.
//
// One binary, three workloads (serve-read, churn-write, mega-burst; see
// README.md for their shapes and why each was chosen). A run:
//   1. generates every input from --seed (load.cpp);
//   2. builds svc::SnapshotOracle at the start configuration several
//      times (setup_s is the median);
//   3. runs the writer (open loop at a fixed epoch rate, or closed loop
//      over burst cycles) beside closed-loop reader threads serving a
//      pre-generated pair stream through the live svc::serve_route;
//   4. after timing ends, checks sampled epochs bit-identical against a
//      scratch core::run_egs and checks every route outcome;
//   5. prints the deterministic writer fingerprint, then one JSON line:
//      end-to-end metrics with --trace 0, per-layer metrics with
//      --trace 1 (spans recorded around calls into svc and core from
//      this file; nothing inside the library is instrumented).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/egs.hpp"
#include "core/packed_levels.hpp"
#include "histogram.hpp"
#include "load.hpp"
#include "spans.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"

namespace {

using namespace slbench;
namespace core = slcube::core;
namespace fault = slcube::fault;
namespace svc = slcube::svc;

/// Set-up repeats at least kSetupRuns times and until kSetupBudgetNs is
/// spent (at most kSetupMaxRuns); setup_s is the median.
constexpr unsigned kSetupRuns = 5;
constexpr unsigned kSetupMaxRuns = 15;
constexpr std::int64_t kSetupBudgetNs = 1'000'000'000;
/// Exact latency samples kept per reader to check histogram percentiles.
constexpr std::size_t kExactSamples = std::size_t{1} << 16;
/// Traced runs alternate untraced and traced blocks of this many
/// requests, so the tracing overhead is measured under equal load.
constexpr std::uint64_t kTraceBlock = 1024;
/// Every this-many traced requests is replayed for the layer breakdown.
constexpr std::uint64_t kReplayEvery = 16;
constexpr unsigned kSampledEpochs = 6;
constexpr std::size_t kCensusWindow = 16;
constexpr std::int64_t kMirrorBudgetNs = 2'000'000'000;
constexpr std::size_t kReaderSpans = 120'000;
constexpr std::size_t kWriterSpans = 60'000;
constexpr unsigned kCheckThreads = 3;
/// Reader throughput and latency are summarized per window of this
/// length and reported as the median window, so a host hiccup in one
/// second of the run does not move the run's figure.
constexpr std::int64_t kWindowNs = 1'000'000'000;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) { return exact_quantile(std::move(v), 0.5); }

/// Route outcomes of one reader.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t optimal = 0;
  std::uint64_t detour = 0;
  std::uint64_t refused = 0;
  std::uint64_t stuck = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unstale_drops = 0;  ///< must stay 0: every drop is stale
  std::uint64_t stale = 0;
  std::uint64_t hops = 0;

  void count(const svc::ServeResult& r) {
    ++attempted;
    switch (r.status) {
      case svc::ServeStatus::kDeliveredOptimal:
        ++optimal;
        break;
      case svc::ServeStatus::kDeliveredSuboptimal:
        ++detour;
        break;
      case svc::ServeStatus::kRefused:
        ++refused;
        break;
      case svc::ServeStatus::kStuck:
        ++stuck;
        break;
      case svc::ServeStatus::kDroppedSource:
      case svc::ServeStatus::kDroppedNode:
      case svc::ServeStatus::kDroppedLink:
        ++dropped;
        if (!r.stale()) ++unstale_drops;
        break;
    }
    if (r.stale()) ++stale;
    hops += r.hops();
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    optimal += o.optimal;
    detour += o.detour;
    refused += o.refused;
    stuck += o.stuck;
    dropped += o.dropped;
    unstale_drops += o.unstale_drops;
    stale += o.stale;
    hops += o.hops;
  }
  [[nodiscard]] std::uint64_t outcomes() const {
    return optimal + detour + refused + stuck + dropped;
  }
};

struct ReaderOut {
  Tally tally;
  Histogram latency;  ///< ns per request (untraced requests only)
  std::vector<Histogram> windows;  ///< the same, per kWindowNs window
  std::vector<double> exact;
  // Traced requests only.
  Histogram acquire_ns;
  Histogram lag_epochs;
  std::uint64_t traced = 0;
  std::uint64_t untraced = 0;
  std::int64_t traced_ns = 0;
  std::int64_t untraced_ns = 0;
  std::int64_t serve_ns = 0;
  std::uint64_t acquires = 0;
  std::uint64_t replays = 0;
  std::uint64_t replay_mismatches = 0;
  std::int64_t live_ns = 0;
  std::int64_t det_ns = 0;
  std::int64_t decide_ns = 0;
  std::int64_t walk_ns = 0;
  std::uint64_t walk_hops = 0;
  std::uint64_t sink = 0;  ///< keeps replayed results observable
  std::unique_ptr<SpanLog> log;
};

/// A published epoch kept for the post-run bit-identity check.
struct Kept {
  std::size_t events = 0;  ///< script events applied (open loop)
  svc::SnapshotPtr snap;
};

struct Fingerprint {
  std::uint64_t applies = 0;
  core::SafetyOracle::Stats cascade;
  core::EgsOracle::Stats egs;
  std::uint64_t digest = 0;
};

struct WriterOut {
  std::vector<double> publish_ms;  ///< from the due time (open loop)
  std::vector<double> call_ms;     ///< from the call
  std::vector<double> late_ms;     ///< call start minus due time
  std::int64_t busy_ns = 0;
  std::int64_t stop_ns = 0;
  std::vector<Kept> kept;
  std::uint64_t alive_max = 0;
  Fingerprint fingerprint;  ///< mega-burst: after the first cycle
  std::unique_ptr<SpanLog> log;
};

std::uint64_t table_digest(const svc::Snapshot& s) {
  const std::uint64_t pub = core::packed_digest(s.public_view.packed());
  const std::uint64_t self = core::packed_digest(s.self_view.packed());
  return pub ^ ((self << 1) | (self >> 63)) ^ (s.faults.count() << 32) ^
         s.links.count();
}

Fingerprint fingerprint_of(const svc::SnapshotOracle& oracle,
                           std::uint64_t applies) {
  Fingerprint fp;
  fp.applies = applies;
  fp.cascade = oracle.writer_oracle().pseudo_stats();
  fp.egs = oracle.writer_oracle().stats();
  fp.digest = table_digest(*oracle.acquire());
  return fp;
}

/// Pin the calling thread to the `slot`-th CPU this process may use, so
/// the readers and the spinning writer never share a core.
void pin_to_slot(unsigned slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return;
  int want = static_cast<int>(slot % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

/// The writer owns a core, so it spins to each due time: a sleep's
/// wake-up jitter would otherwise land in every publish latency.
void wait_until(std::int64_t due) {
  while (now_ns() < due) {
  }
}

/// ServeResult's count of snapshot acquires under serve_route's contract:
/// the reader's decision acquire, the launch check, and one per judged
/// traversal (landed hops plus the fatal one of an in-flight drop).
std::uint64_t acquires_of(const svc::ServeResult& r) {
  const bool fatal_hop = r.status == svc::ServeStatus::kDroppedNode ||
                         r.status == svc::ServeStatus::kDroppedLink;
  return 2 + r.hops() + (fatal_hop ? 1 : 0);
}

/// A reader's tallies live on its own stack while it runs and are moved
/// to `result` at the end: adjacent ReaderOut slots of one vector would
/// share cache lines between readers on every request.
void run_reader(const svc::SnapshotOracle& oracle, const Inputs& in,
                unsigned index, std::size_t offset, bool trace,
                const std::atomic<bool>& stop, std::int64_t start,
                ReaderOut& result) {
  const slcube::topo::Hypercube& cube = in.cube;
  pin_to_slot(index);
  ReaderOut out;
  out.exact.reserve(kExactSamples);
  if (trace) {
    out.log = std::make_unique<SpanLog>("reader" + std::to_string(index),
                                        kReaderSpans);
  }
  while (now_ns() < start) {
  }
  std::size_t i = offset;
  for (std::uint64_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
    const Pair p = in.pairs[i];
    if (++i == in.pairs.size()) i = 0;
    if (!trace || ((seq / kTraceBlock) & 1) == 0) {
      const std::int64_t t0 = now_ns();
      const svc::SnapshotPtr snap = oracle.acquire();
      const svc::ServeResult res = svc::serve_route(oracle, snap, p.s, p.d);
      const std::int64_t t1 = now_ns();
      out.latency.record(static_cast<std::uint64_t>(t1 - t0));
      const auto w = static_cast<std::size_t>((t1 - start) / kWindowNs);
      if (w >= out.windows.size()) out.windows.resize(w + 1);
      out.windows[w].record(static_cast<std::uint64_t>(t1 - t0));
      if (out.exact.size() < kExactSamples) {
        out.exact.push_back(static_cast<double>(t1 - t0));
      }
      ++out.untraced;
      out.untraced_ns += t1 - t0;
      out.tally.count(res);
      continue;
    }
    const std::uint64_t rid = (std::uint64_t{index} + 1) << 40 | seq;
    const std::int64_t t0 = now_ns();
    const svc::SnapshotPtr snap = oracle.acquire();
    const std::int64_t t1 = now_ns();
    const svc::ServeResult res = svc::serve_route(oracle, snap, p.s, p.d);
    const std::int64_t t2 = now_ns();
    const std::int32_t root = out.log->add("request", rid, -1, t0, t2);
    if (root >= 0) {
      out.log->add("svc.acquire", rid, root, t0, t1);
      out.log->add("svc.serve", rid, root, t1, t2);
    }
    out.lag_epochs.record(oracle.epoch() - res.decision_epoch);
    out.acquire_ns.record(static_cast<std::uint64_t>(t1 - t0));
    ++out.traced;
    out.traced_ns += t2 - t0;
    out.serve_ns += t2 - t1;
    out.acquires += acquires_of(res);
    out.tally.count(res);
    if (seq % kReplayEvery != 0) continue;

    // Layer breakdown on the same pair and decision snapshot, outside
    // the request: live serve again (warm, like the deterministic one),
    // deterministic serve (no ground re-acquire), the source decision,
    // and the core router (decision + walk).
    const core::EgsViews views = snap->views();
    const std::int64_t r0 = now_ns();
    const svc::ServeResult live = svc::serve_route(oracle, snap, p.s, p.d);
    const std::int64_t r1 = now_ns();
    const svc::ServeResult det = svc::serve_route(*snap, *snap, p.s, p.d);
    const std::int64_t r2 = now_ns();
    const core::SourceDecision dec =
        core::decide_at_source_egs(cube, snap->links, views, p.s, p.d);
    const std::int64_t r3 = now_ns();
    const core::RouteResult routed = core::route_unicast_egs(
        cube, snap->faults, snap->links, views, p.s, p.d);
    const std::int64_t r4 = now_ns();
    const std::int32_t replay = out.log->open("replay", rid, -1, r0);
    if (replay >= 0) {
      out.log->close(replay, r4);
      out.log->add("svc.serve.live", rid, replay, r0, r1);
      out.log->add("svc.serve.det", rid, replay, r1, r2);
      out.log->add("core.decide", rid, replay, r2, r3);
      out.log->add("core.route", rid, replay, r3, r4);
    }
    ++out.replays;
    out.live_ns += r1 - r0;
    out.det_ns += r2 - r1;
    out.decide_ns += r3 - r2;
    if (routed.hops() > 0) {
      out.walk_ns += (r4 - r3) - (r3 - r2);
      out.walk_hops += routed.hops();
    }
    // With ground == decision the service walk is the core router's.
    if (det.path != routed.path || det.delivered() != routed.delivered()) {
      ++out.replay_mismatches;
    }
    out.sink += live.hops() + (dec.c1 ? 1u : 0u);
  }
  result = std::move(out);
}

/// One scripted event through the service's writer API or, for the
/// traced mirror, the same calls on a plain core::EgsOracle.
template <typename Oracle>
void apply_to(Oracle& oracle, const ChurnEvent& ev) {
  switch (ev.kind) {
    case ChurnEvent::Kind::kNodeFail:
      oracle.add_fault(ev.node);
      break;
    case ChurnEvent::Kind::kNodeRecover:
      oracle.remove_fault(ev.node);
      break;
    case ChurnEvent::Kind::kLinkFail:
      oracle.fail_link(ev.node, ev.dim);
      break;
    case ChurnEvent::Kind::kLinkRecover:
      oracle.recover_link(ev.node, ev.dim);
      break;
  }
}

/// Open loop: event k is due at start + k / rate, whatever the service
/// is doing; its publish latency runs from the due time.
void run_open_writer(svc::SnapshotOracle& oracle, const Inputs& in,
                     const Shape& shape, bool trace, std::atomic<bool>& stop,
                     std::int64_t start, WriterOut& out) {
  const std::size_t events = in.script.size();
  const double period_ns = 1e9 / shape.epochs_per_s;
  out.publish_ms.reserve(events);
  out.call_ms.reserve(events);
  out.late_ms.reserve(events);
  if (trace) out.log = std::make_unique<SpanLog>("writer", kWriterSpans);
  std::vector<std::size_t> sampled;
  for (unsigned j = 1; j <= kSampledEpochs; ++j) {
    sampled.push_back(j * events / (kSampledEpochs + 1));
  }
  sampled.push_back(events);
  std::vector<std::weak_ptr<const svc::Snapshot>> census(kCensusWindow);
  std::size_t next_sample = 0;
  for (std::size_t k = 0; k < events; ++k) {
    const auto due =
        start + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    wait_until(due);
    const std::int64_t t_call = now_ns();
    apply_to(oracle, in.script[k]);
    const std::int64_t t_end = now_ns();
    out.publish_ms.push_back(static_cast<double>(t_end - due) * 1e-6);
    out.call_ms.push_back(static_cast<double>(t_end - t_call) * 1e-6);
    out.late_ms.push_back(static_cast<double>(t_call - due) * 1e-6);
    out.busy_ns += t_end - t_call;
    while (next_sample < sampled.size() && sampled[next_sample] == k + 1) {
      out.kept.push_back({k + 1, oracle.acquire()});
      ++next_sample;
    }
    if (trace) {
      const std::int32_t root = out.log->open("writer.epoch", k + 1, -1, due);
      if (root >= 0) {
        out.log->close(root, t_end);
        out.log->add("writer.wait", k + 1, root, due, t_call);
        out.log->add("svc.publish", k + 1, root, t_call, t_end);
      }
      census[k % kCensusWindow] = oracle.acquire();
      const auto alive = static_cast<std::uint64_t>(
          std::count_if(census.begin(), census.end(),
                        [](const auto& w) { return !w.expired(); }));
      out.alive_max = std::max(out.alive_max, alive);
    }
  }
  out.stop_ns = now_ns();
  stop.store(true, std::memory_order_relaxed);
}

/// Closed loop: burst cycles back to back until the run time is spent
/// (always finishing a started cycle, so the final table is the start
/// configuration's).
void run_burst_writer(svc::SnapshotOracle& oracle, const Inputs& in,
                      unsigned seconds, bool trace, std::atomic<bool>& stop,
                      std::int64_t start, WriterOut& out) {
  if (trace) out.log = std::make_unique<SpanLog>("writer", kWriterSpans);
  while (now_ns() < start) {
  }
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds) * 1'000'000'000;
  std::vector<std::weak_ptr<const svc::Snapshot>> census(kCensusWindow);
  std::uint64_t applies = 0;
  for (std::size_t c = 0; c < in.bursts.size(); ++c) {
    if (c > 0 && now_ns() >= deadline) break;
    for (int phase = 0; phase < 2; ++phase) {
      const std::int64_t t0 = now_ns();
      oracle.apply(in.bursts[c], {});
      const std::int64_t t1 = now_ns();
      ++applies;
      out.publish_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.call_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.late_ms.push_back(0.0);
      out.busy_ns += t1 - t0;
      if (c == 0 && phase == 0) out.kept.push_back({0, oracle.acquire()});
      if (trace) {
        out.log->add("svc.publish", applies, -1, t0, t1);
        census[applies % kCensusWindow] = oracle.acquire();
        const auto alive = static_cast<std::uint64_t>(
            std::count_if(census.begin(), census.end(),
                          [](const auto& w) { return !w.expired(); }));
        out.alive_max = std::max(out.alive_max, alive);
      }
    }
    if (c == 0) out.fingerprint = fingerprint_of(oracle, applies);
  }
  out.kept.push_back({0, oracle.acquire()});
  out.stop_ns = now_ns();
  stop.store(true, std::memory_order_relaxed);
}

/// Median publish latency. A burst cycle's fail and repair applies cost
/// differently (two separate modes), so for bursts the median is taken
/// over cycles of the cycle's mean apply; a plain median would fall in
/// the gap between the modes and follow their extremes.
double publish_p50_ms(const Shape& shape, const std::vector<double>& ms) {
  if (shape.epochs_per_s > 0) return median(ms);
  std::vector<double> cycles;
  for (std::size_t i = 0; i + 1 < ms.size(); i += 2) {
    cycles.push_back((ms[i] + ms[i + 1]) / 2.0);
  }
  return median(cycles);
}

bool same_links(const fault::LinkFaultSet& a, const fault::LinkFaultSet& b) {
  return a.faulty_links() == b.faulty_links();
}

bool same_tables(const svc::Snapshot& s, const core::EgsResult& scratch) {
  return s.public_view == scratch.public_view &&
         s.self_view == scratch.self_view;
}

/// Run `jobs` on a few threads (verification after timing ends).
void run_parallel(std::vector<std::function<void()>>& jobs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kCheckThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t j = next++; j < jobs.size(); j = next++) jobs[j]();
    });
  }
  for (auto& th : pool) th.join();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t snapshot_bytes(const svc::Snapshot& s) {
  return s.faults.words().size() * sizeof(std::uint64_t) +
         s.links.cube().num_nodes() +  // per-node adjacent-link counts
         s.links.count() * sizeof(std::uint64_t) +
         s.public_view.packed().storage_bytes() +
         s.self_view.packed().storage_bytes();
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Build the service at the start configuration, repeatedly; returns the
/// construction times (seconds) and leaves the last instance in `oracle`.
std::vector<double> set_up(const Inputs& in,
                           std::unique_ptr<svc::SnapshotOracle>& oracle,
                           SpanLog& log) {
  std::vector<double> seconds;
  const std::int64_t begin = now_ns();
  const std::int32_t root = log.open("setup", 0, -1, begin);
  for (unsigned r = 0; r < kSetupMaxRuns; ++r) {
    if (r >= kSetupRuns && now_ns() - begin >= kSetupBudgetNs) break;
    oracle.reset();
    const std::int64_t t0 = now_ns();
    oracle = std::make_unique<svc::SnapshotOracle>(in.cube, in.faults, in.links);
    const std::int64_t t1 = now_ns();
    log.add("svc.SnapshotOracle", 0, root, t0, t1);
    seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  log.close(root, now_ns());
  return seconds;
}

/// Everything the checks and the metrics read after timing ends.
struct Run {
  std::vector<double> setup_s;
  svc::SnapshotPtr epoch0;
  std::int64_t start = 0;
  WriterOut writer;
  std::vector<ReaderOut> readers;
  double rss_mb = 0.0;
  Fingerprint fingerprint;
  Tally tally;  ///< all readers
};

Run run_timed(const Inputs& in, const Shape& shape, const CliOptions& opt,
              SpanLog& log) {
  Run run;
  std::unique_ptr<svc::SnapshotOracle> oracle;
  run.setup_s = set_up(in, oracle, log);
  run.epoch0 = oracle->acquire();

  std::atomic<bool> stop{false};
  run.start = now_ns() + 5'000'000;
  run.readers.resize(shape.readers);
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < shape.readers; ++r) {
    readers.emplace_back(run_reader, std::cref(*oracle), std::cref(in), r,
                         r * in.pairs.size() / shape.readers, opt.trace,
                         std::cref(stop), run.start, std::ref(run.readers[r]));
  }
  std::thread writer([&] {
    pin_to_slot(shape.readers);
    if (shape.epochs_per_s > 0) {
      run_open_writer(*oracle, in, shape, opt.trace, stop, run.start,
                      run.writer);
    } else {
      run_burst_writer(*oracle, in, opt.seconds, opt.trace, stop, run.start,
                       run.writer);
    }
  });
  writer.join();
  for (auto& th : readers) th.join();
  run.rss_mb = peak_rss_mb();
  run.fingerprint = shape.epochs_per_s > 0
                        ? fingerprint_of(*oracle, in.script.size())
                        : run.writer.fingerprint;
  for (const ReaderOut& r : run.readers) run.tally.merge(r.tally);
  return run;
}

/// Kept epochs against a scratch run_egs of their own configuration, and
/// that configuration against the generator's model of the script.
/// Returns the number of failed table checks.
std::uint64_t check_tables(const Inputs& in, const Shape& shape, const Run& run,
                           const core::EgsResult& start_scratch,
                           std::vector<std::string>& errors) {
  std::uint64_t failed = 0;
  if (!same_tables(*run.epoch0, start_scratch)) {
    ++failed;
    errors.push_back("epoch 0 differs from run_egs");
  }
  const WriterOut& w = run.writer;
  std::vector<fault::FaultSet> want_faults;
  std::vector<fault::LinkFaultSet> want_links;
  if (shape.epochs_per_s > 0) {
    fault::FaultSet faults = in.faults;
    fault::LinkFaultSet links = in.links;
    std::size_t applied = 0;
    for (const Kept& k : w.kept) {
      for (; applied < k.events; ++applied) {
        apply_event(in.script[applied], faults, links);
      }
      want_faults.push_back(faults);
      want_links.push_back(links);
    }
    if (w.publish_ms.size() != in.script.size()) {
      errors.push_back("writer did not finish its script");
    }
  } else {
    fault::FaultSet burst = in.faults;
    for (const NodeId a : in.bursts[0]) burst.mark_faulty(a);
    want_faults = {burst, in.faults};
    want_links = {in.links, in.links};
    if (w.publish_ms.empty() || w.publish_ms.size() % 2 != 0) {
      errors.push_back("burst cycles incomplete");
    }
  }
  std::vector<std::uint8_t> ok(w.kept.size(), 0);
  std::vector<std::function<void()>> jobs;
  for (std::size_t j = 0; j < w.kept.size(); ++j) {
    jobs.emplace_back([&, j] {
      const svc::Snapshot& s = *w.kept[j].snap;
      if (!(s.faults == want_faults[j]) || !same_links(s.links, want_links[j])) {
        return;
      }
      // The start configuration (final mega-burst table) reuses its build.
      const bool at_start = s.faults == in.faults && same_links(s.links, in.links);
      ok[j] = same_tables(s, at_start ? start_scratch
                                      : core::run_egs(in.cube, s.faults, s.links));
    });
  }
  run_parallel(jobs);
  for (std::size_t j = 0; j < ok.size(); ++j) {
    if (ok[j] != 0) continue;
    ++failed;
    errors.push_back("epoch " + std::to_string(w.kept[j].snap->epoch) +
                     " differs from run_egs of its configuration");
  }
  return failed;
}

/// Route outcomes and the histogram's resolution. Returns the number of
/// deterministic-replay mismatches.
std::uint64_t check_routes(const Run& run, std::vector<std::string>& errors) {
  const Tally& t = run.tally;
  std::uint64_t mismatches = 0;
  std::vector<double> exact;
  for (const ReaderOut& r : run.readers) {
    mismatches += r.replay_mismatches;
    exact.insert(exact.end(), r.exact.begin(), r.exact.end());
  }
  if (t.attempted == 0) errors.push_back("no route was attempted");
  if (t.outcomes() != t.attempted) {
    errors.push_back("route outcomes do not sum to attempted");
  }
  if (t.stuck != 0) errors.push_back("stuck routes");
  if (t.unstale_drops != 0) errors.push_back("a drop was not stale");
  if (mismatches != 0) {
    errors.push_back("deterministic serve differs from route_unicast_egs");
  }
  if (exact.size() >= 1000) {
    Histogram check;
    for (const double v : exact) check.record(static_cast<std::uint64_t>(v));
    for (const double q : {0.5, 0.99}) {
      const double want = exact_quantile(exact, q);
      if (std::abs(check.quantile(q) - want) > 0.02 * want + 1.0) {
        errors.push_back("histogram quantile " + std::to_string(q) +
                         " is off the exact sort by more than 2%");
      }
    }
  }
  return mismatches;
}

void print_fingerprint(const CliOptions& opt, const Shape& shape,
                       const Fingerprint& fp, unsigned gs_rounds) {
  std::cout << "fingerprint {\"workload\": \"" << to_string(opt.workload)
            << "\", \"seed\": " << opt.seed << ", \"dim\": " << shape.dim
            << ", \"applies\": " << fp.applies
            << ", \"recomputes\": " << fp.cascade.recomputes
            << ", \"level_changes\": " << fp.cascade.level_changes
            << ", \"cascades\": " << fp.cascade.cascades
            << ", \"rebuilds\": " << fp.cascade.rebuilds
            << ", \"self_refreshes\": " << fp.egs.self_refreshes
            << ", \"self_recomputes\": " << fp.egs.self_recomputes
            << ", \"gs_rounds\": " << gs_rounds << ", \"digest\": \""
            << std::hex << fp.digest << std::dec << "\"}\n";
}

std::vector<Metric> end_to_end(const Run& run) {
  // Medians over the run's whole windows (the pooled run if it has none).
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  const std::int64_t length = run.writer.stop_ns - run.start;
  const auto full = static_cast<std::size_t>(length / kWindowNs);
  for (std::size_t w = 0; w < full; ++w) {
    Histogram merged;
    for (const ReaderOut& r : run.readers) {
      if (w < r.windows.size()) merged.merge(r.windows[w]);
    }
    rates.push_back(static_cast<double>(merged.count()) * 1e9 / kWindowNs);
    p50s.push_back(merged.quantile(0.5));
    p99s.push_back(merged.quantile(0.99));
  }
  Histogram pooled;
  for (const ReaderOut& r : run.readers) pooled.merge(r.latency);
  if (full == 0) {
    rates = {static_cast<double>(run.tally.attempted) * 1e9 /
             static_cast<double>(length)};
    p50s = {pooled.quantile(0.5)};
    p99s = {pooled.quantile(0.99)};
  }
  std::cerr << "routes " << run.tally.attempted << " (latency samples "
            << pooled.count() << " in " << full << " windows of 1 s, rate "
            << static_cast<long>(*std::min_element(rates.begin(), rates.end()))
            << ".." << static_cast<long>(*std::max_element(rates.begin(), rates.end()))
            << "/s), publishes " << run.writer.publish_ms.size() << '\n';
  return {
      {"routes_per_s", median(rates), "1/s"},
      {"route_p50_us", median(p50s) * 1e-3, "us"},
      {"route_p99_us", median(p99s) * 1e-3, "us"},
      {"setup_s", median(run.setup_s), "s"},
      {"peak_rss_mb", run.rss_mb, "MB"},
  };
}

/// The cascade and the snapshot copy timed apart from the service: a
/// bench-owned core::EgsOracle replays the writer's script after timing
/// (the first burst cycle, or the script prefix that fits kMirrorBudgetNs).
struct Mirror {
  std::vector<double> apply_ms;
  std::vector<double> copy_ms;
  std::uint64_t copy_bytes = 0;
};

Mirror replay_mirror(const Inputs& in, const Shape& shape, SpanLog& log) {
  Mirror m;
  core::EgsOracle mirror(in.cube, in.faults, in.links);
  const std::int64_t budget_end = now_ns() + kMirrorBudgetNs;
  const auto step = [&](std::uint64_t epoch, const auto& apply) {
    const std::int64_t a0 = now_ns();
    const std::int32_t root = log.open("mirror.epoch", epoch, -1, a0);
    apply();
    const std::int64_t a1 = now_ns();
    const auto copy = std::make_shared<const svc::Snapshot>(svc::Snapshot{
        epoch, epoch - 1, {}, mirror.faults(), mirror.links(),
        mirror.public_view(), mirror.self_view()});
    const std::int64_t a2 = now_ns();
    log.close(root, a2);
    log.add("core.egs_apply", epoch, root, a0, a1);
    log.add("svc.snapshot_copy", epoch, root, a1, a2);
    m.apply_ms.push_back(static_cast<double>(a1 - a0) * 1e-6);
    m.copy_ms.push_back(static_cast<double>(a2 - a1) * 1e-6);
    m.copy_bytes = snapshot_bytes(*copy);
  };
  if (shape.epochs_per_s > 0) {
    for (std::size_t k = 0; k < in.script.size(); ++k) {
      if (k > 0 && now_ns() >= budget_end) break;
      step(k + 1, [&] { apply_to(mirror, in.script[k]); });
    }
  } else {
    for (std::uint64_t phase = 1; phase <= 2; ++phase) {
      step(phase, [&] { mirror.apply(in.bursts[0], {}); });
    }
  }
  return m;
}

/// Print the per-span totals to stderr and write every span as JSONL.
void report_spans(const CliOptions& opt, const std::vector<const SpanLog*>& logs,
                  double untraced_ns, double traced_ns) {
  std::fprintf(stderr, "%-22s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : span_totals(logs)) {
    std::fprintf(stderr, "%-22s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms,
                 t.self_ms);
  }
  std::fprintf(stderr,
               "request mean: untraced %.1f ns, traced %.1f ns "
               "(tracing overhead %+.2f%%)\n",
               untraced_ns, traced_ns, 100.0 * (traced_ns / untraced_ns - 1.0));
  if (opt.trace_dir.empty()) return;
  std::filesystem::create_directories(opt.trace_dir);
  const std::string path = opt.trace_dir + "/" + to_string(opt.workload) +
                           "-seed" + std::to_string(opt.seed) + ".jsonl";
  std::ofstream os(path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      os << "{\"thread\": \"" << log->thread() << "\", \"name\": \"" << s.name
         << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
         << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
         << "}\n";
    }
  }
  std::cerr << "spans written to " << path << '\n';
}

double ratio(double num, std::uint64_t den) {
  return num / static_cast<double>(std::max<std::uint64_t>(1, den));
}

std::vector<Metric> per_layer(const Inputs& in, const Shape& shape,
                              const CliOptions& opt, const Run& run,
                              SpanLog& main_log, double gs_ms,
                              unsigned gs_rounds, std::uint64_t failed_checks) {
  ReaderOut sum;
  Histogram acquire_ns;
  Histogram lag;
  std::vector<const SpanLog*> logs = {&main_log};
  for (const ReaderOut& r : run.readers) {
    acquire_ns.merge(r.acquire_ns);
    lag.merge(r.lag_epochs);
    sum.traced += r.traced;
    sum.untraced += r.untraced;
    sum.traced_ns += r.traced_ns;
    sum.untraced_ns += r.untraced_ns;
    sum.serve_ns += r.serve_ns;
    sum.acquires += r.acquires;
    sum.replays += r.replays;
    sum.live_ns += r.live_ns;
    sum.det_ns += r.det_ns;
    sum.decide_ns += r.decide_ns;
    sum.walk_ns += r.walk_ns;
    sum.walk_hops += r.walk_hops;
    logs.push_back(r.log.get());
  }
  const WriterOut& w = run.writer;
  if (w.log) logs.push_back(w.log.get());
  SpanLog mirror_log("mirror", kWriterSpans);
  const Mirror mirror = replay_mirror(in, shape, mirror_log);
  logs.push_back(&mirror_log);

  const Tally& t = run.tally;
  const auto share = [&](std::uint64_t part) {
    return ratio(static_cast<double>(part), t.attempted);
  };
  const double traced_ns = ratio(static_cast<double>(sum.traced_ns), sum.traced);
  const double untraced_ns =
      ratio(static_cast<double>(sum.untraced_ns), sum.untraced);
  const Fingerprint& fp = run.fingerprint;
  report_spans(opt, logs, untraced_ns, traced_ns);
  return {
      {"svc.acquire.per_route", ratio(static_cast<double>(sum.acquires), sum.traced), "count"},
      {"svc.acquire.p50_ns", acquire_ns.quantile(0.5), "ns"},
      {"svc.acquire.p99_ns", acquire_ns.quantile(0.99), "ns"},
      {"svc.serve.ns_per_route", ratio(static_cast<double>(sum.serve_ns), sum.traced), "ns"},
      {"svc.ground_judge.ns_per_route", ratio(static_cast<double>(sum.live_ns - sum.det_ns), sum.replays), "ns"},
      {"core.decide.ns", ratio(static_cast<double>(sum.decide_ns), sum.replays), "ns"},
      {"core.walk.ns_per_hop", ratio(static_cast<double>(sum.walk_ns), sum.walk_hops), "ns"},
      {"core.route.hops_per_route", share(t.hops), "count"},
      {"core.route.optimal_share", share(t.optimal), "share"},
      {"core.route.detour_share", share(t.detour), "share"},
      {"core.route.refused_share", share(t.refused), "share"},
      {"delivered_share", share(t.optimal + t.detour + t.refused), "share"},
      {"fail_share", share(t.dropped + t.stuck + failed_checks), "share"},
      {"svc.publish.ms", median(w.call_ms), "ms"},
      {"publish_p50_ms", publish_p50_ms(shape, w.publish_ms), "ms"},
      {"publish_p99_ms", exact_quantile(w.publish_ms, 0.99), "ms"},
      {"core.egs_apply.ms", median(mirror.apply_ms), "ms"},
      {"svc.snapshot_copy.ms", median(mirror.copy_ms), "ms"},
      {"svc.snapshot_copy.bytes", static_cast<double>(mirror.copy_bytes), "B"},
      {"svc.snapshots_alive.max", static_cast<double>(w.alive_max), "count"},
      {"svc.reader_lag_epochs.p50", lag.quantile(0.5), "epochs"},
      {"svc.reader_lag_epochs.p99", lag.quantile(0.99), "epochs"},
      {"svc.stale_share", share(t.stale), "share"},
      {"svc.drop_share", share(t.dropped), "share"},
      {"core.cascade.recomputes", static_cast<double>(fp.cascade.recomputes), "count"},
      {"core.cascade.level_changes", static_cast<double>(fp.cascade.level_changes), "count"},
      {"core.cascade.rebuilds", static_cast<double>(fp.cascade.rebuilds), "count"},
      {"core.cascade.recomputes_per_change", ratio(static_cast<double>(fp.cascade.recomputes), fp.cascade.level_changes), "count"},
      {"core.egs.self_refreshes", static_cast<double>(fp.egs.self_refreshes), "count"},
      {"core.egs.self_recomputes", static_cast<double>(fp.egs.self_recomputes), "count"},
      {"core.gs.ms", gs_ms, "ms"},
      {"core.gs.rounds", static_cast<double>(gs_rounds), "count"},
      {"writer.late_ms.p99", exact_quantile(w.late_ms, 0.99), "ms"},
      {"writer.busy_share", static_cast<double>(w.busy_ns) / static_cast<double>(w.stop_ns - run.start), "share"},
      {"trace.overhead_share", traced_ns / untraced_ns - 1.0, "share"},
  };
}

int run_benchmark(const CliOptions& opt) {
  const Shape shape = shape_of(opt.workload, opt.small);
  const Inputs in = generate(shape, opt.seed, opt.seconds);
  SpanLog main_log("main", 4096);
  const Run run = run_timed(in, shape, opt, main_log);

  // Checks, after timing.
  std::vector<std::string> errors;
  const std::int32_t verify = main_log.open("verify", 0, -1, now_ns());
  const std::int64_t g0 = now_ns();
  const core::EgsResult start_scratch =
      core::run_egs(in.cube, in.faults, in.links);
  const std::int64_t g1 = now_ns();
  main_log.add("core.run_egs", 0, verify, g0, g1);
  const std::uint64_t failed_checks =
      check_tables(in, shape, run, start_scratch, errors);
  const std::uint64_t mismatches = check_routes(run, errors);
  main_log.close(verify, now_ns());
  for (const std::string& e : errors) std::cerr << "CHECK FAILED: " << e << '\n';

  print_fingerprint(opt, shape, run.fingerprint,
                    start_scratch.rounds_to_stabilize);
  const std::vector<Metric> metrics =
      opt.trace ? per_layer(in, shape, opt, run, main_log,
                            static_cast<double>(g1 - g0) * 1e-6,
                            start_scratch.rounds_to_stabilize, failed_checks)
                : end_to_end(run);
  const bool correct = errors.empty();
  print_json(correct, run.tally.attempted + run.writer.publish_ms.size(),
             run.tally.stuck + run.tally.unstale_drops + mismatches + failed_checks,
             metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto opt =
      parse_cli(std::vector<std::string>(argv + 1, argv + argc), error);
  if (!opt) {
    std::cerr << "slbench: " << error << '\n' << kUsage << '\n';
    return 2;
  }
  return run_benchmark(*opt);
}
