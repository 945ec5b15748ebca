#ifndef GPAR_COMMON_TIMER_H_
#define GPAR_COMMON_TIMER_H_

#include "common/require_cxx20.h"  // IWYU pragma: keep

#include <chrono>
#include <cstdint>

namespace gpar {

/// Monotonic wall-clock stopwatch: request latencies, pass timings, and
/// the benchmark harness. (The BSP runtime times its workers in thread CPU
/// seconds, `ThreadCpuSeconds` in parallel/bsp.h.)
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Restart, in seconds.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double Millis() const { return Seconds() * 1e3; }

  /// Elapsed time in microseconds.
  int64_t Micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gpar

#endif  // GPAR_COMMON_TIMER_H_
