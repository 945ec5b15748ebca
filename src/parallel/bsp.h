#ifndef GPAR_PARALLEL_BSP_H_
#define GPAR_PARALLEL_BSP_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/thread_pool.h"

namespace gpar {

/// Timing record for one BSP computation.
///
/// The paper deploys n fragments on n machines; this reproduction runs them
/// as n threads on one host and reports, per round, the *max per-worker CPU
/// time* (the makespan a real n-machine deployment would see), plus the
/// coordinator's assembly time. `SimulatedParallelSeconds` — makespan plus
/// coordinator — is the quantity the Exp-1/Exp-3 "varying n" curves plot;
/// wall time on a single host cannot show the speedup, makespan can
/// (see README.md, "Reproduction substitutions").
struct ParallelTimes {
  double wall_seconds = 0;
  double makespan_seconds = 0;
  double coordinator_seconds = 0;
  std::vector<double> worker_total_seconds;  // per worker, cumulative CPU
  uint32_t rounds = 0;

  double SimulatedParallelSeconds() const noexcept {
    return makespan_seconds + coordinator_seconds;
  }
};

/// Returns CPU time consumed by the calling thread, in seconds.
double ThreadCpuSeconds();

/// Bulk-synchronous runtime: alternating parallel worker rounds and
/// coordinator sections, with per-round makespan accounting.
class BspRuntime {
 public:
  explicit BspRuntime(uint32_t num_workers);

  /// Runs fn(worker_id) for all workers; the barrier is implicit (returns
  /// when all are done). Adds max-over-workers CPU time to the makespan.
  void RunRound(const std::function<void(uint32_t)>& fn);

  /// Gather overload: runs fn(worker_id) for all workers and returns the
  /// per-worker payloads indexed by worker id — the BSP "messages to the
  /// coordinator" of a round, without caller-side mutex plumbing. Each
  /// worker writes only its own slot, so the result is deterministic
  /// regardless of scheduling. T must be default-constructible and
  /// move-assignable. Timing is identical to the void overload: producing
  /// the payload counts toward the round's makespan, not the coordinator.
  template <typename Fn, typename T = std::invoke_result_t<Fn&, uint32_t>,
            typename = std::enable_if_t<!std::is_void_v<T>>>
  std::vector<T> RunRound(Fn&& fn) {
    // vector<bool> packs bits: concurrent out[i] writes from different
    // workers would race on shared words. Return a wider type (or a struct).
    static_assert(!std::is_same_v<T, bool>,
                  "bool payloads race in std::vector<bool>; gather a wider "
                  "type instead");
    std::vector<T> out(num_workers_);
    RunRound(std::function<void(uint32_t)>(
        [&out, &fn](uint32_t i) { out[i] = fn(i); }));
    return out;
  }

  /// Runs (and times) a coordinator section on the calling thread.
  void RunCoordinator(const std::function<void()>& fn);

  uint32_t num_workers() const noexcept { return num_workers_; }
  const ParallelTimes& times() const noexcept { return times_; }
  /// Finalizes wall time; call once when the computation completes.
  ParallelTimes FinishTiming();

 private:
  uint32_t num_workers_;
  ThreadPool pool_;
  ParallelTimes times_;
  double wall_start_;
};

}  // namespace gpar

#endif  // GPAR_PARALLEL_BSP_H_
