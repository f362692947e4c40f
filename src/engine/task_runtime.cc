#include "engine/task_runtime.h"

#include <algorithm>

#include "common/check.h"

namespace himpact {
namespace {

// The runtime whose worker the current thread is, if any: WaitIdle from
// inside a job would wait for itself forever, so it fails loudly.
thread_local const TaskRuntime* tl_runtime = nullptr;

}  // namespace

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

TaskRuntime::TaskRuntime(const TaskRuntimeOptions& options) {
  std::size_t num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskRuntime::~TaskRuntime() { Shutdown(); }

TaskHandle TaskRuntime::Submit(std::function<void()> fn) {
  TaskHandle handle;
  handle.state_ = std::make_shared<TaskHandle::State>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HIMPACT_CHECK_MSG(!shut_down_, "Submit on a shut-down TaskRuntime");
    queue_.push_back(Job{std::move(fn), handle.state_});
    ++pending_;
    ++stats_.submitted;
  }
  work_cv_.notify_one();
  return handle;
}

void TaskRuntime::WaitIdle() {
  HIMPACT_CHECK_MSG(tl_runtime != this,
                    "WaitIdle from inside a job would self-deadlock");
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void TaskRuntime::Shutdown() {
  // Drain BEFORE flagging: running jobs may legally submit follow-up
  // work while the drain runs; only post-drain submits are fatal.
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

TaskRuntimeStats TaskRuntime::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TaskRuntime& TaskRuntime::Shared() {
  // Leaked on purpose (see header): a submitter may wait on handles
  // during static teardown, after locals would have died.
  static TaskRuntime* shared = new TaskRuntime(TaskRuntimeOptions{});
  return *shared;
}

void TaskRuntime::WorkerLoop() {
  tl_runtime = this;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return shut_down_ || !queue_.empty(); });
    // Shutdown flags only a drained runtime, so an empty queue here
    // means there is nothing left to run.
    if (queue_.empty()) break;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    job.fn();
    job.fn = nullptr;  // release the captures outside the lock
    lock.lock();
    // Count before marking the handle done, so a caller that waited on
    // the handle reads its job in `completed`.
    ++stats_.completed;
    {
      std::lock_guard<std::mutex> state_lock(job.state->mutex);
      job.state->done = true;
    }
    job.state->cv.notify_all();
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace himpact
