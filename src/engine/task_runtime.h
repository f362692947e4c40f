#ifndef HIMPACT_ENGINE_TASK_RUNTIME_H_
#define HIMPACT_ENGINE_TASK_RUNTIME_H_

#include <array>
#include <atomic>
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
/// Work-stealing background task runtime.
///
/// `TaskRuntime` generalizes the ad-hoc background threads that grew
/// around the service layer (the session's detached delta-chain
/// collapse worker and inline cold-tier seal writes) into one pool of
/// workers fed by Chase-Lev work-stealing deques:
///
///   - each worker owns a deque; jobs submitted *from* a worker go to
///     its own deque (LIFO pop, cache-warm), and idle workers steal
///     from the opposite end (FIFO, oldest first);
///   - jobs submitted from outside the pool land in a mutex-protected
///     injector queue that every worker drains between deque sweeps;
///   - jobs carry a `JobClass` so operators can see *what* the
///     background pool spends its time on (per-class counters), and so
///     the scheduling policy has a hook if classes ever need isolation
///     beyond counters.
///
/// Threading/memory model: the deque is the textbook Chase-Lev
/// structure with every access through `std::atomic` at seq_cst.
/// Sequential consistency costs one fence per push/pop — irrelevant at
/// background-job granularity — and keeps the structure free of
/// standalone `atomic_thread_fence`, which ThreadSanitizer does not
/// model (docs/PERFORMANCE.md, "Task runtime").
///
/// Blocking contract: a job may wait for other jobs it submitted ONLY
/// when the runtime has more than one worker (on a single-worker
/// runtime the waiting job occupies the only thread that could run
/// them). `WaitIdle`/`Shutdown` must be called from outside the pool.

namespace himpact {

/// What a background job does, for accounting and policy. Classes map
/// to the maintenance work the serving layers offload (see
/// docs/PERFORMANCE.md for who submits what):
enum class JobClass : int {
  kGeneric = 0,        // tests, benches, uncategorized work
  kDeltaCollapse = 1,  // session background delta-chain fold to full
  kTierDemotion = 2,   // cold-tier seal flush of pending demotion records
};

inline constexpr std::size_t kNumJobClasses = 3;

/// Stable lowercase name for reports ("generic", "delta_collapse", ...).
const char* JobClassName(JobClass job_class);

/// Pool geometry. `num_workers == 0` resolves to
/// `std::thread::hardware_concurrency()` (at least 1).
struct TaskRuntimeOptions {
  std::size_t num_workers = 0;
  /// Initial per-worker deque capacity (rounded up to a power of two).
  /// Deques grow without bound; this only sizes the first ring.
  std::size_t initial_deque_capacity = 256;
};

/// Monotone counters, snapshot via `TaskRuntime::Stats()`.
struct TaskRuntimeStats {
  std::array<std::uint64_t, kNumJobClasses> submitted{};
  std::array<std::uint64_t, kNumJobClasses> completed{};
  /// Jobs a worker popped from its own deque.
  std::uint64_t executed_local = 0;
  /// Jobs taken from another worker's deque.
  std::uint64_t stolen = 0;
  /// Jobs that entered through the injector queue (external submits).
  std::uint64_t injected = 0;
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

  /// Enqueues `fn` to run on some worker. Thread-safe from any thread;
  /// submissions from inside a job go to the submitting worker's own
  /// deque (stealable by idle workers), external submissions go through
  /// the injector queue.
  TaskHandle Submit(JobClass job_class, std::function<void()> fn);

  /// Blocks until every submitted job (including jobs submitted by
  /// running jobs) has completed. Call from outside the pool only.
  void WaitIdle();

  /// Drains all pending work (`WaitIdle`) then stops and joins the
  /// workers. Idempotent; `Submit` after `Shutdown` is a fatal error.
  void Shutdown();

  std::size_t num_workers() const { return workers_.size(); }

  /// Snapshot of the runtime counters. Thread-safe; individually
  /// consistent (each counter is read atomically, the set is not).
  TaskRuntimeStats Stats() const;

  /// Process-wide shared runtime for background maintenance (sized to
  /// the host, minimum 1 worker). Constructed on first use and
  /// intentionally never destroyed, so late-exiting sessions can still
  /// wait on handles during static teardown.
  static TaskRuntime& Shared();

 private:
  struct Job {
    std::function<void()> fn;
    JobClass job_class = JobClass::kGeneric;
    std::shared_ptr<TaskHandle::State> state;
  };

  /// Chase-Lev work-stealing deque of `Job*`. Owner pushes and pops at
  /// the bottom; thieves CAS the top. All atomics seq_cst (see file
  /// comment). The ring grows owner-side; retired rings are kept alive
  /// until destruction because a concurrent thief may still hold the
  /// old pointer — the copied range is identical in both rings, and the
  /// CAS on `top_` still hands each index to exactly one taker.
  class Deque {
   public:
    explicit Deque(std::size_t capacity);
    ~Deque();

    void Push(Job* job);  // owner only
    Job* Pop();           // owner only
    Job* Steal();         // any thread

   private:
    struct Ring {
      explicit Ring(std::size_t n) : mask(n - 1), slots(n) {}
      const std::size_t mask;
      std::vector<std::atomic<Job*>> slots;
    };

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Ring*> ring_;
    std::vector<std::unique_ptr<Ring>> retired_;  // owner-only
  };

  struct Worker {
    explicit Worker(std::size_t deque_capacity) : deque(deque_capacity) {}
    Deque deque;
  };

  void WorkerLoop(std::size_t index);
  void Execute(Job* job);
  Job* TakeInjected();
  Job* StealFrom(std::size_t thief);
  void SignalWork();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mutex_;
  std::deque<Job*> injector_;

  // Parking: workers sleep here when a full sweep finds nothing. The
  // epoch counter closes the race between a worker's final sweep and a
  // concurrent submit — a submit bumps the epoch, so a sleeper whose
  // captured epoch went stale wakes (or never sleeps); the bounded
  // wait_for is the backstop for a steal racing the sweep itself.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};

  // Idle tracking for WaitIdle: jobs in flight (submitted, not yet
  // completed). The completing worker takes idle_mutex_ before
  // notifying so a waiter cannot miss the final decrement.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> pending_{0};

  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_down_{false};

  std::array<std::atomic<std::uint64_t>, kNumJobClasses> submitted_{};
  std::array<std::atomic<std::uint64_t>, kNumJobClasses> completed_{};
  std::atomic<std::uint64_t> executed_local_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace himpact

#endif  // HIMPACT_ENGINE_TASK_RUNTIME_H_
