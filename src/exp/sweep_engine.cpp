#include "exp/sweep_engine.hpp"

namespace slcube::exp {

std::vector<double> trial_latency_bounds() {
  return obs::exponential_bounds(1.0, 2.0, 26);
}

SweepEngine::SweepEngine(EngineOptions options)
    : pool_(options.threads),
      seed_(options.seed),
      registry_(options.registry != nullptr ? options.registry : &metrics_),
      profiler_(options.profiler),
      trials_run_(registry_->counter("exp.trials_run")) {}

void SweepEngine::record_timing(EngineTiming* timing,
                                const obs::Stopwatch& wall,
                                const std::vector<ChunkMeta>& meta) {
  if (timing == nullptr) return;
  timing->wall_ms = wall.millis();
  timing->trial_latency_us = obs::HistogramData(trial_latency_bounds());
  double busy_ms = 0.0;
  for (const ChunkMeta& m : meta) {
    busy_ms += m.busy_ms;
    timing->trial_latency_us.merge(m.latency);
  }
  const double capacity_ms = timing->wall_ms * static_cast<double>(meta.size());
  timing->utilization = capacity_ms > 0.0 ? busy_ms / capacity_ms : 0.0;
}

}  // namespace slcube::exp
