#ifndef HIMPACT_ENGINE_TASK_RUNTIME_H_
#define HIMPACT_ENGINE_TASK_RUNTIME_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Task runtime: a fixed pool of workers over one FIFO.
///
/// `TaskRuntime` runs the fork-join work of two submitters — the shard
/// set's per-shard batches and WAL replay's per-stripe jobs — on K
/// threads that share one mutex-guarded FIFO queue. Every submitter
/// sits outside the pool and every job is coarse, so one lock per
/// submit and per take costs little next to the job. An idle worker
/// blocks on the queue's condition variable with no timeout: a pool
/// with nothing to do uses no CPU, and a submit wakes one worker.
///
/// Blocking contract: a job may wait for other jobs it submitted ONLY
/// when the runtime has more than one worker (on a single-worker
/// runtime the waiting job occupies the only thread that could run
/// them). `WaitIdle`/`Shutdown` must be called from outside the pool.

namespace himpact {

/// Pool geometry. `num_workers == 0` resolves to
/// `std::thread::hardware_concurrency()` (at least 1).
struct TaskRuntimeOptions {
  std::size_t num_workers = 0;
};

/// Monotone job counters, snapshot via `TaskRuntime::Stats()`.
struct TaskRuntimeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
};

/// Completion handle for one submitted job. Copyable (shared state);
/// a default-constructed handle is empty (`valid() == false`).
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the job's function has returned. Empty handles are done.
  bool done() const;

  /// Blocks until the job completes. Returns immediately for empty or
  /// already-completed handles. Must not be called from a job running
  /// on a single-worker runtime (see the blocking contract above).
  void Wait();

 private:
  friend class TaskRuntime;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };
  std::shared_ptr<State> state_;
};

/// The pool. Workers start in the constructor and join in `Shutdown()`
/// (or the destructor, which drains pending jobs first).
class TaskRuntime {
 public:
  explicit TaskRuntime(const TaskRuntimeOptions& options = {});
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  /// Appends `fn` to the queue; the oldest queued job runs first.
  /// Thread-safe from any thread, including from inside a job.
  TaskHandle Submit(std::function<void()> fn);

  /// Blocks until every submitted job (including jobs submitted by
  /// running jobs) has completed. Call from outside the pool only.
  void WaitIdle();

  /// Drains all pending work (`WaitIdle`) then stops and joins the
  /// workers. Idempotent; `Submit` after `Shutdown` is a fatal error.
  void Shutdown();

  std::size_t num_workers() const { return threads_.size(); }

  /// Snapshot of the job counters. Thread-safe.
  TaskRuntimeStats Stats() const;

  /// Process-wide shared runtime (sized to the host, minimum 1 worker).
  /// Constructed on first use and intentionally never destroyed, so a
  /// late-exiting submitter can still wait on handles during static
  /// teardown.
  static TaskRuntime& Shared();

 private:
  struct Job {
    std::function<void()> fn;
    std::shared_ptr<TaskHandle::State> state;
  };

  void WorkerLoop();

  // Guards the members down to `stats_`. Workers wait on `work_cv_`
  // for "queue non-empty or shut down"; WaitIdle/Shutdown wait on
  // `idle_cv_` for `pending_ == 0`. Every predicate input changes under
  // the mutex, so neither wait needs a timeout to catch a missed wakeup.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::uint64_t pending_ = 0;  // submitted, not yet completed
  bool shut_down_ = false;
  TaskRuntimeStats stats_;

  std::vector<std::thread> threads_;
};

}  // namespace himpact

#endif  // HIMPACT_ENGINE_TASK_RUNTIME_H_
