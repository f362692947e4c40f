// Task runtime (engine/task_runtime.h): exactly-once execution under
// concurrent submitters, FIFO order, no lost wakeup across many
// submit-then-wait round trips, job accounting, WaitIdle/Shutdown
// drain semantics, and TaskHandle completion. The whole file is
// exercised by the tsan preset (docs/ROBUSTNESS.md).

#include "engine/task_runtime.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace himpact {
namespace {

TEST(TaskRuntimeTest, RunsSubmittedJobs) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 2});
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(runtime.Submit([&ran] { ran.fetch_add(1); }));
  }
  for (TaskHandle& handle : handles) handle.Wait();
  EXPECT_EQ(ran.load(), 100);
  for (TaskHandle& handle : handles) EXPECT_TRUE(handle.done());
}

TEST(TaskRuntimeTest, EmptyHandleIsDone) {
  TaskHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_TRUE(handle.done());
  handle.Wait();  // returns immediately
}

TEST(TaskRuntimeTest, ExactlyOnceUnderConcurrentSubmitters) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 4});
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 500;
  std::vector<std::atomic<int>> cells(kSubmitters * kJobsEach);
  for (auto& cell : cells) cell.store(0);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&runtime, &cells, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        const int index = s * kJobsEach + j;
        runtime.Submit([&cells, index] { cells[index].fetch_add(1); });
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  runtime.WaitIdle();
  for (const auto& cell : cells) EXPECT_EQ(cell.load(), 1);
  const TaskRuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kJobsEach));
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(TaskRuntimeTest, OneWorkerRunsJobsInSubmissionOrder) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 1});
  std::vector<int> order;  // only the single worker writes it
  for (int i = 0; i < 200; ++i) {
    runtime.Submit([&order, i] { order.push_back(i); });
  }
  runtime.WaitIdle();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

// Idle workers block with no timeout, so a lost wakeup would hang a
// round trip forever instead of costing a millisecond: every submit
// lands while the pool is (or is about to be) asleep.
TEST(TaskRuntimeTest, SequentialSubmitThenWaitNeverHangs) {
  for (const std::size_t workers : {1u, 4u}) {
    TaskRuntime runtime(TaskRuntimeOptions{.num_workers = workers});
    int ran = 0;  // each job happens-before the next via Wait
    for (int i = 0; i < 10000; ++i) {
      runtime.Submit([&ran] { ++ran; }).Wait();
    }
    EXPECT_EQ(ran, 10000) << workers << " worker(s)";
  }
}

// A waited-on job is already counted as completed.
TEST(TaskRuntimeTest, CountsSubmittedAndCompletedJobs) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 2});
  EXPECT_EQ(runtime.Stats().submitted, 0u);
  EXPECT_EQ(runtime.Stats().completed, 0u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    runtime.Submit([] {}).Wait();
    const TaskRuntimeStats stats = runtime.Stats();
    EXPECT_EQ(stats.submitted, i);
    EXPECT_EQ(stats.completed, i);
  }
}

TEST(TaskRuntimeTest, WaitIdleCoversTransitiveSubmissions) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 3});
  std::atomic<int> ran{0};
  runtime.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      runtime.Submit([&] {
        ran.fetch_add(1);
        runtime.Submit([&ran] { ran.fetch_add(1); });
      });
    }
  });
  runtime.WaitIdle();
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskRuntimeTest, ShutdownDrainsAndIsIdempotent) {
  TaskRuntime runtime(TaskRuntimeOptions{.num_workers = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    runtime.Submit([&ran] { ran.fetch_add(1); });
  }
  runtime.Shutdown();
  EXPECT_EQ(ran.load(), 50);
  runtime.Shutdown();  // no-op
}

TEST(TaskRuntimeTest, SharedRuntimeIsUsable) {
  std::atomic<int> ran{0};
  TaskRuntime::Shared().Submit([&ran] { ran.fetch_add(1); }).Wait();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(TaskRuntime::Shared().num_workers(), 1u);
}

}  // namespace
}  // namespace himpact
