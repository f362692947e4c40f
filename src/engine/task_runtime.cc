#include "engine/task_runtime.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace himpact {
namespace {

// Which worker (of which runtime) the current thread is. Lets Submit
// route a job from inside a running job to the submitting worker's own
// deque instead of the injector.
thread_local TaskRuntime* tl_runtime = nullptr;
thread_local std::size_t tl_worker = 0;

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t pow2 = 8;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace

const char* JobClassName(JobClass job_class) {
  switch (job_class) {
    case JobClass::kGeneric:
      return "generic";
    case JobClass::kDeltaCollapse:
      return "delta_collapse";
    case JobClass::kTierDemotion:
      return "tier_demotion";
  }
  return "generic";
}

bool TaskHandle::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void TaskHandle::Wait() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
}

// ---------------------------------------------------------------------------
// Chase-Lev deque

TaskRuntime::Deque::Deque(std::size_t capacity) {
  ring_.store(new Ring(RoundUpPow2(capacity)), std::memory_order_seq_cst);
}

TaskRuntime::Deque::~Deque() {
  // The runtime drains before destruction, so no jobs remain.
  delete ring_.load(std::memory_order_seq_cst);
}

void TaskRuntime::Deque::Push(Job* job) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  if (b - t > static_cast<std::int64_t>(ring->mask)) {
    // Full: grow 2x. Only the owner is here; thieves may concurrently
    // read the OLD ring, which stays alive in retired_ and holds the
    // identical values for every index in [top, bottom).
    Ring* bigger = new Ring((ring->mask + 1) * 2);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slots[static_cast<std::size_t>(i) & bigger->mask].store(
          ring->slots[static_cast<std::size_t>(i) & ring->mask].load(
              std::memory_order_seq_cst),
          std::memory_order_seq_cst);
    }
    retired_.emplace_back(ring);
    ring_.store(bigger, std::memory_order_seq_cst);
    ring = bigger;
  }
  ring->slots[static_cast<std::size_t>(b) & ring->mask].store(
      job, std::memory_order_seq_cst);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

TaskRuntime::Job* TaskRuntime::Deque::Pop() {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty; restore the canonical empty shape (top == bottom).
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  Job* job = ring->slots[static_cast<std::size_t>(b) & ring->mask].load(
      std::memory_order_seq_cst);
  if (t == b) {
    // Last element: race the thieves for it via the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      job = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return job;
}

TaskRuntime::Job* TaskRuntime::Deque::Steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Ring* ring = ring_.load(std::memory_order_seq_cst);
  Job* job = ring->slots[static_cast<std::size_t>(t) & ring->mask].load(
      std::memory_order_seq_cst);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;  // lost to the owner or another thief; caller rescans
  }
  return job;
}

// ---------------------------------------------------------------------------
// Runtime

TaskRuntime::TaskRuntime(const TaskRuntimeOptions& options) {
  std::size_t num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(options.initial_deque_capacity));
  }
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskRuntime::~TaskRuntime() { Shutdown(); }

TaskHandle TaskRuntime::Submit(JobClass job_class, std::function<void()> fn) {
  HIMPACT_CHECK_MSG(!shut_down_.load(std::memory_order_seq_cst),
                    "Submit on a shut-down TaskRuntime");
  auto state = std::make_shared<TaskHandle::State>();
  Job* job = new Job{std::move(fn), job_class, state};
  pending_.fetch_add(1, std::memory_order_seq_cst);
  submitted_[static_cast<std::size_t>(job_class)].fetch_add(
      1, std::memory_order_relaxed);
  if (tl_runtime == this) {
    workers_[tl_worker]->deque.Push(job);
  } else {
    {
      std::lock_guard<std::mutex> lock(inject_mutex_);
      injector_.push_back(job);
    }
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  SignalWork();
  TaskHandle handle;
  handle.state_ = std::move(state);
  return handle;
}

void TaskRuntime::WaitIdle() {
  HIMPACT_CHECK_MSG(tl_runtime != this,
                    "WaitIdle from inside a job would self-deadlock");
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_seq_cst) == 0;
  });
}

void TaskRuntime::Shutdown() {
  if (shut_down_.load(std::memory_order_seq_cst)) return;
  // Drain BEFORE flagging: running jobs may legally submit follow-up
  // work while the drain runs; only post-drain submits are fatal.
  WaitIdle();
  shut_down_.store(true, std::memory_order_seq_cst);
  stop_.store(true, std::memory_order_seq_cst);
  {
    // Take the lock before notifying so a worker between its final
    // sweep and its wait cannot miss the stop flag.
    std::lock_guard<std::mutex> lock(park_mutex_);
    park_cv_.notify_all();
  }
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

TaskRuntimeStats TaskRuntime::Stats() const {
  TaskRuntimeStats stats;
  for (std::size_t i = 0; i < kNumJobClasses; ++i) {
    stats.submitted[i] = submitted_[i].load(std::memory_order_relaxed);
    stats.completed[i] = completed_[i].load(std::memory_order_relaxed);
  }
  stats.executed_local = executed_local_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.injected = injected_.load(std::memory_order_relaxed);
  return stats;
}

TaskRuntime& TaskRuntime::Shared() {
  // Leaked on purpose (see header): sessions may wait on background
  // handles during static teardown, after locals would have died.
  static TaskRuntime* shared = new TaskRuntime(TaskRuntimeOptions{});
  return *shared;
}

void TaskRuntime::SignalWork() {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(park_mutex_);
  park_cv_.notify_all();
}

TaskRuntime::Job* TaskRuntime::TakeInjected() {
  std::lock_guard<std::mutex> lock(inject_mutex_);
  if (injector_.empty()) return nullptr;
  Job* job = injector_.front();
  injector_.pop_front();
  return job;
}

TaskRuntime::Job* TaskRuntime::StealFrom(std::size_t thief) {
  const std::size_t n = workers_.size();
  for (std::size_t i = 1; i < n; ++i) {
    Job* job = workers_[(thief + i) % n]->deque.Steal();
    if (job != nullptr) return job;
  }
  return nullptr;
}

void TaskRuntime::Execute(Job* job) {
  job->fn();
  completed_[static_cast<std::size_t>(job->job_class)].fetch_add(
      1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(job->state->mutex);
    job->state->done = true;
  }
  job->state->cv.notify_all();
  delete job;
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Last in-flight job: wake WaitIdle under its lock (see header).
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void TaskRuntime::WorkerLoop(std::size_t index) {
  tl_runtime = this;
  tl_worker = index;
  Worker& self = *workers_[index];
  while (true) {
    Job* job = self.deque.Pop();
    if (job != nullptr) {
      executed_local_.fetch_add(1, std::memory_order_relaxed);
      Execute(job);
      continue;
    }
    job = TakeInjected();
    if (job != nullptr) {
      Execute(job);
      continue;
    }
    job = StealFrom(index);
    if (job != nullptr) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      Execute(job);
      continue;
    }
    // Full sweep came up empty. Capture the epoch BEFORE the stop
    // check so a submit racing this gap forces a wake-or-no-sleep.
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_seq_cst)) break;
    std::unique_lock<std::mutex> lock(park_mutex_);
    park_cv_.wait_for(lock, std::chrono::milliseconds(1), [this, epoch] {
      return stop_.load(std::memory_order_seq_cst) ||
             work_epoch_.load(std::memory_order_seq_cst) != epoch;
    });
  }
  tl_runtime = nullptr;
}

}  // namespace himpact
