// EGS ORACLE — wall-clock accounting for the incremental two-view table
// (core::EgsOracle) against from-scratch run_egs, Section 4.1's analogue
// of the ENGINE bench.
//
// Three runs of the same mission sweep — each trial is a mission on an
// initially fault-free cube where node AND link fault events arrive one
// at a time (a coin picks the event class, repairs kick in near each
// ceiling), the EGS two-view tables are refreshed after every event, and
// application unicasts are routed on them — differing only in machinery:
//   A  serial  + from-scratch run_egs per event
//   B  serial  + incremental EgsOracle add/remove/fail/recover
//   C  N-way   + incremental EgsOracle
// All three consume the identical counter-based RNG substreams, so their
// outcome tallies (folded into an order-sensitive digest) must match
// bit-for-bit — the run aborts loudly if they do not, or if B and C
// disagree on the oracle's cascade work. --bench-json writes the
// BENCH_EGS_ORACLE.json artifact the CI perf gate checks, including run
// B's cascade counters (oracle_recomputes / _level_changes / _rebuilds),
// which gate exactly.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "core/egs.hpp"
#include "core/egs_oracle.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "workload/pair_sampler.hpp"

namespace {

using namespace slcube;

struct Tally {
  std::uint64_t optimal = 0;
  std::uint64_t suboptimal = 0;
  std::uint64_t refused = 0;
  std::uint64_t stuck = 0;
};

/// Public-view cascade work summed over missions (zero for run A). The
/// counts are deterministic, so --bench-json gates them exactly.
struct CascadeWork {
  std::uint64_t recomputes = 0;
  std::uint64_t level_changes = 0;
  std::uint64_t rebuilds = 0;
  bool operator==(const CascadeWork&) const = default;
};

struct RunResult {
  double wall_ms = 0.0;
  double utilization = 0.0;
  std::uint64_t digest = 0;  ///< order-sensitive fold over mission tallies
  unsigned workers = 1;
  Tally totals;
  CascadeWork cascade;
};

/// One full sweep of `missions` independent missions; `use_oracle` picks
/// incremental two-view maintenance vs run_egs per event, `threads`
/// picks the engine width. Both modes draw the identical RNG sequence.
/// With telemetry hooks the run is split into batches via map()'s
/// trial_offset (substreams unchanged, so the digest still must match)
/// with a recorder tick at each batch boundary.
RunResult run_sweep(const topo::Hypercube& cube, unsigned missions,
                    unsigned events, unsigned pairs, std::uint64_t seed,
                    unsigned threads, bool use_oracle,
                    obs::InstrumentationHooks hooks = {}) {
  exp::SweepEngine engine({threads, seed, hooks.registry, hooks.profiler});
  RunResult result;
  result.workers =
      static_cast<unsigned>(std::max<std::size_t>(1, engine.workers()));

  const std::uint64_t node_ceiling = 2 * cube.dimension();
  const std::size_t link_ceiling = 2 * cube.dimension();
  struct MissionResult {
    Tally tally;
    CascadeWork cascade;
  };
  const auto body = [&](exp::TrialContext& ctx) {
        MissionResult mission;
        Tally& out = mission.tally;
        fault::FaultSet f(cube.num_nodes());
        fault::LinkFaultSet lf(cube);
        core::EgsOracle oracle(cube);  // fault-free start: O(N) fill
        core::EgsResult scratch;
        for (unsigned e = 0; e < events; ++e) {
          if (ctx.rng.chance(0.5)) {
            // Node event.
            const bool repair = f.count() >= node_ceiling ||
                                (f.count() > 4 && ctx.rng.chance(0.3));
            if (repair) {
              const auto faulty = f.faulty_nodes();
              const NodeId back = faulty[ctx.rng.below(faulty.size())];
              f.mark_healthy(back);
              if (use_oracle) oracle.remove_fault(back);
            } else {
              NodeId victim;
              do {
                victim =
                    static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
              } while (f.is_faulty(victim));
              f.mark_faulty(victim);
              if (use_oracle) oracle.add_fault(victim);
            }
          } else {
            // Link event.
            const bool repair = lf.count() >= link_ceiling ||
                                (lf.count() > 4 && ctx.rng.chance(0.3));
            if (repair) {
              const auto faulty = lf.faulty_links();
              const auto [a, d] = faulty[ctx.rng.below(faulty.size())];
              lf.mark_healthy(a, d);
              if (use_oracle) oracle.recover_link(a, d);
            } else {
              NodeId a;
              Dim d;
              do {
                a = static_cast<NodeId>(ctx.rng.below(cube.num_nodes()));
                d = static_cast<Dim>(ctx.rng.below(cube.dimension()));
              } while (lf.is_faulty(a, d));
              lf.mark_faulty(a, d);
              if (use_oracle) oracle.fail_link(a, d);
            }
          }
          if (!use_oracle) scratch = core::run_egs(cube, f, lf);
          const core::EgsViews views =
              use_oracle
                  ? oracle.views()
                  : core::EgsViews{scratch.public_view, scratch.self_view};
          for (unsigned p = 0; p < pairs; ++p) {
            const auto pair = workload::sample_uniform_pair(f, ctx.rng);
            if (!pair) break;
            const auto r = core::route_unicast_egs(cube, f, lf, views,
                                                   pair->s, pair->d);
            out.optimal += r.status == core::RouteStatus::kDeliveredOptimal;
            out.suboptimal +=
                r.status == core::RouteStatus::kDeliveredSuboptimal;
            out.refused += r.status == core::RouteStatus::kSourceRefused;
            out.stuck += r.status == core::RouteStatus::kStuck;
          }
        }
        const core::SafetyOracle::Stats& work = oracle.pseudo_stats();
        mission.cascade = {work.recomputes, work.level_changes,
                           work.rebuilds};
        return mission;
  };

  exp::EngineTiming timing;
  std::vector<MissionResult> tallies;
  if (!hooks.enabled()) {
    tallies = engine.map<MissionResult>(0, missions, body, &timing);
  } else {
    timing.trial_latency_us = obs::HistogramData(exp::trial_latency_bounds());
    const std::size_t batch = std::max<std::size_t>(1, (missions + 7) / 8);
    double util_weighted = 0.0;
    hooks.tick();  // baseline sample: deltas start at the run's t0
    for (std::size_t off = 0; off < missions; off += batch) {
      const std::size_t n = std::min<std::size_t>(batch, missions - off);
      exp::EngineTiming bt;
      auto part = engine.map<MissionResult>(0, n, body, &bt, off);
      tallies.insert(tallies.end(), part.begin(), part.end());
      timing.wall_ms += bt.wall_ms;
      util_weighted += bt.utilization * bt.wall_ms;
      timing.trial_latency_us.merge(bt.trial_latency_us);
      hooks.tick();
    }
    timing.utilization =
        timing.wall_ms > 0.0 ? util_weighted / timing.wall_ms : 0.0;
  }
  result.wall_ms = timing.wall_ms;
  result.utilization = timing.utilization;
  for (const auto& [t, work] : tallies) {
    result.cascade.recomputes += work.recomputes;
    result.cascade.level_changes += work.level_changes;
    result.cascade.rebuilds += work.rebuilds;
    result.digest = exp::mix64(result.digest ^ t.optimal);
    result.digest = exp::mix64(result.digest ^ t.suboptimal);
    result.digest = exp::mix64(result.digest ^ t.refused);
    result.digest = exp::mix64(result.digest ^ t.stuck);
    result.totals.optimal += t.optimal;
    result.totals.suboptimal += t.suboptimal;
    result.totals.refused += t.refused;
    result.totals.stuck += t.stuck;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const unsigned dim = opt.dim ? opt.dim : 14;
  const unsigned missions = opt.trials ? opt.trials : 40;
  const unsigned events = 50;
  const unsigned pairs = 8;
  const std::uint64_t seed = opt.seed ? opt.seed : 0xE6504AC;

  const topo::Hypercube cube(dim);

  bench::TelemetrySession telemetry(opt);

  const auto serial_scratch =
      run_sweep(cube, missions, events, pairs, seed, 1, false);
  const auto serial_oracle =
      run_sweep(cube, missions, events, pairs, seed, 1, true);
  const auto parallel_oracle =
      run_sweep(cube, missions, events, pairs, seed, opt.threads, true);

  const bool identical = serial_scratch.digest == serial_oracle.digest &&
                         serial_oracle.digest == parallel_oracle.digest &&
                         serial_oracle.cascade == parallel_oracle.cascade;
  if (!identical) {
    std::cerr << "FATAL: tallies or cascade work diverged between runs — "
                 "the EGS oracle or the engine is not deterministic\n";
    return 1;
  }

  const unsigned workers = parallel_oracle.workers;
  const double speedup_oracle = serial_scratch.wall_ms / serial_oracle.wall_ms;
  const double speedup_threads =
      serial_oracle.wall_ms / parallel_oracle.wall_ms;
  const double speedup_total =
      serial_scratch.wall_ms / parallel_oracle.wall_ms;

  Table table("EGS ORACLE: mixed node/link mission sweep, Q" +
                  std::to_string(dim) + " (" + std::to_string(missions) +
                  " missions x " + std::to_string(events) + " events x " +
                  std::to_string(pairs) + " pairs, " +
                  std::to_string(workers) + " workers available)",
              {"configuration", "wall ms", "utilization", "speedup vs A"});
  table.set_precision(1, 1);
  table.set_precision(2, 2);
  table.set_precision(3, 2);
  table.row() << "A serial + scratch run_egs" << serial_scratch.wall_ms
              << serial_scratch.utilization << 1.0;
  table.row() << "B serial + EGS oracle" << serial_oracle.wall_ms
              << serial_oracle.utilization << speedup_oracle;
  table.row() << "C parallel + EGS oracle" << parallel_oracle.wall_ms
              << parallel_oracle.utilization << speedup_total;
  bench::emit(table, opt);

  std::cout << "tallies identical across A/B/C: yes (digest "
            << serial_scratch.digest << ")\n"
            << "speedup (oracle alone) " << speedup_oracle
            << "x, (threads alone) " << speedup_threads << "x, (total) "
            << speedup_total << "x\n";

  // Run D: configuration C with the flight recorder attached; telemetry
  // must not change results, so the digest has to match run C.
  double telemetry_ms = 0.0;
  if (telemetry.enabled()) {
    const auto telemetered = run_sweep(cube, missions, events, pairs, seed,
                                       opt.threads, true, telemetry.hooks());
    if (telemetered.digest != parallel_oracle.digest) {
      std::cerr << "FATAL: telemetry-enabled run diverged from run C\n";
      return 1;
    }
    telemetry_ms = telemetered.wall_ms;
    if (!telemetry.finish(dim, telemetered.workers)) return 2;
    std::cout << "telemetry: digest matches run C, " << telemetry_ms
              << " ms vs " << parallel_oracle.wall_ms << " ms untelemetered ("
              << opt.telemetry_file << ")\n";
  }

  if (!opt.bench_json.empty()) {
    std::ofstream out(opt.bench_json, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << opt.bench_json << " for writing\n";
      return 2;
    }
    out << "{\n"
        << "  \"bench\": \"egs_oracle\",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"missions\": " << missions << ",\n"
        << "  \"events_per_mission\": " << events << ",\n"
        << "  \"pairs_per_event\": " << pairs << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"serial_scratch_ms\": " << serial_scratch.wall_ms << ",\n"
        << "  \"serial_oracle_ms\": " << serial_oracle.wall_ms << ",\n"
        << "  \"parallel_oracle_ms\": " << parallel_oracle.wall_ms << ",\n";
    if (telemetry.enabled()) {
      out << "  \"telemetry_parallel_oracle_ms\": " << telemetry_ms << ",\n";
    }
    out        << "  \"speedup_oracle\": " << speedup_oracle << ",\n"
        << "  \"speedup_threads\": " << speedup_threads << ",\n"
        << "  \"speedup_total\": " << speedup_total << ",\n"
        << "  \"tallies_identical\": true,\n"
        << "  \"oracle_recomputes\": " << serial_oracle.cascade.recomputes
        << ",\n"
        << "  \"oracle_level_changes\": "
        << serial_oracle.cascade.level_changes << ",\n"
        << "  \"oracle_rebuilds\": " << serial_oracle.cascade.rebuilds
        << ",\n"
        << "  \"digest\": " << serial_scratch.digest << "\n"
        << "}\n";
  }
  return 0;
}
