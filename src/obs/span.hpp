// slcube::obs — a monotonic stopwatch. The sweep engine times each point
// and each trial with it to report wall time and per-trial latency
// percentiles.
#pragma once

#include <chrono>

namespace slcube::obs {

/// Monotonic stopwatch (steady_clock).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }
  [[nodiscard]] double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }
  [[nodiscard]] double millis() const { return micros() / 1000.0; }
  [[nodiscard]] double seconds() const { return micros() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace slcube::obs
