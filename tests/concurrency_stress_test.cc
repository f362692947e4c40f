// Concurrency stress tests, written to run under ThreadSanitizer (the
// `tsan` CMake preset builds exactly these plus the engine/service
// tests). Correctness is asserted functionally — lower-bound invariants
// over the registry — but the real payoff is TSan observing the
// interleavings: a forgotten stripe lock in the registry shows up as a
// data-race report here long before it corrupts an estimate.
//
// Every busy-wait yields: on a single-core box a raw spin burns a full
// scheduler quantum before the other thread can make progress, turning
// seconds of work into minutes.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.h"
#include "random/zipf.h"
#include "service/registry.h"
#include "service/service.h"

namespace {

using namespace himpact;

// Hammer one registry from several threads: ingest threads promote and
// demote users under a tight budget while query threads read point
// estimates, TopK, and Stats. Run under TSan this checks the striped
// locking; the functional assertions check that concurrent demotion
// never publishes an estimate above the per-user event count bound.
TEST(RegistryStress, ConcurrentPromoteDemoteQuery) {
  ServiceOptions options;
  options.num_stripes = 8;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 128 * 1024;  // tight: constant demotion
  options.leaderboard_capacity = 16;
  options.enable_heavy_hitters = false;
  auto registry = TieredUserRegistry::Create(options).value();

  constexpr int kIngestThreads = 3;
  constexpr int kQueryThreads = 2;
  constexpr int kEventsPerThread = 8000;
  constexpr std::uint64_t kUsers = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      ZipfSampler users(kUsers, 1.2);
      for (int i = 0; i < kEventsPerThread; ++i) {
        registry.Add(users.Sample(rng), 1 + rng.UniformU64(100));
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const AuthorId user = 1 + rng.UniformU64(kUsers);
        UserSnapshot snapshot;
        if (registry.Lookup(user, &snapshot)) {
          // An H-index never exceeds the number of events behind it,
          // whatever tier transitions raced with this lookup.
          EXPECT_LE(snapshot.estimate,
                    static_cast<double>(snapshot.events));
        }
        const auto top = registry.TopK(10);
        EXPECT_LE(top.size(), 10u);
        (void)registry.Stats();
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kIngestThreads; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kIngestThreads; t < threads.size(); ++t) {
    threads[t].join();
  }

  const RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.total_events,
            static_cast<std::uint64_t>(kIngestThreads) * kEventsPerThread);
  EXPECT_GT(stats.demotions, 0u);
}

// The full service under mixed load: ingest (with the heavy-hitters
// grid enabled, so its stripe mutexes are in play), point, top-k (both
// the waiting scan and the deadline-bounded one `top` serves) and heavy
// queries, Stats, and a mid-flight checkpoint. TSan-visible surface:
// registry stripes, HH stripes, the HeavyReport cache.
TEST(ServiceStress, MixedIngestQueryCheckpoint) {
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 256 * 1024;
  options.enable_heavy_hitters = true;
  options.top_deadline_nanos = 1'000'000;  // 1ms
  auto service = HImpactService::Create(options).value();

  constexpr int kIngestThreads = 2;
  constexpr int kEventsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      ZipfSampler users(200, 1.1);
      for (int i = 0; i < kEventsPerThread; ++i) {
        service.RecordResponseCount(users.Sample(rng),
                                    1 + rng.UniformU64(50));
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(400);
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.PointHIndex(1 + rng.UniformU64(200));
      (void)service.TopK(5);
      const StatusOr<TopKResult> top = service.TryTopK(5);
      EXPECT_TRUE(top.ok());
      EXPECT_LE(top.value().entries.size(), 5u);
      (void)service.HeavyReport();
      (void)service.Stats();
      std::this_thread::yield();
    }
  });
  const std::string path =
      "/tmp/himpact_stress_ckpt." + std::to_string(::getpid());
  threads.emplace_back([&] {
    // Checkpoints race with ingest on purpose: each stripe snapshot is
    // taken under its lock, so the file is per-stripe consistent.
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(service.CheckpointTo(path).ok());
    }
  });
  for (int t = 0; t < kIngestThreads; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kIngestThreads; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(service.Stats().registry.total_events,
            static_cast<std::uint64_t>(kIngestThreads) * kEventsPerThread);
  // Quiesced, the deadline-bounded scan skips nothing and agrees with
  // the waiting one.
  const StatusOr<TopKResult> top = service.TryTopK(5);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().stripes_skipped, 0u);
  const std::vector<LeaderboardEntry> waited = service.TopK(5);
  ASSERT_EQ(top.value().entries.size(), waited.size());
  for (std::size_t i = 0; i < waited.size(); ++i) {
    EXPECT_EQ(top.value().entries[i].user, waited[i].user);
  }
  std::remove(path.c_str());
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    std::remove(HImpactService::StripePath(path, i).c_str());
  }
  std::remove(HImpactService::GridPath(path).c_str());
}

}  // namespace
