// Runtime fault-tolerance layer (src/fault/): the injection registry's
// fire-window arithmetic and env syntax, jittered-backoff retries, and
// — threaded through the real engine/io/service code — the guarantees
// docs/ROBUSTNESS.md pairs with each fault point: no crash or deadlock,
// tagged monotone lower-bound answers during the fault, and
// post-recovery answers equal to a fault-free run.
//
// Every test arms the process-global FaultRegistry and must Reset() it
// on exit (the fixture enforces this), so tests stay order-independent.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/exponential_histogram.h"
#include "engine/shard_set.h"
#include "engine/traits.h"
#include "fault/backoff.h"
#include "fault/fault.h"
#include "io/checkpoint.h"
#include "random/rng.h"
#include "service/service.h"

namespace himpact {
namespace {

using AggregateShards =
    ShardSet<AggregateEngineTraits<ExponentialHistogramEstimator>>;

// A scratch path unique to this process (tests may run in parallel).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fault_runtime_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

class FaultRuntimeTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- FaultRegistry ----------------------------------------------------------

TEST_F(FaultRuntimeTest, DisarmedProbesNeverFireAndCostNoCounters) {
  FaultRegistry& registry = FaultRegistry::Global();
  EXPECT_FALSE(registry.AnyArmed());
  EXPECT_FALSE(registry.ShouldFire(FaultPoint::kAllocFail));
  // Counters are only maintained while armed (the disarmed fast path is
  // a single load), so the probe above left no trace.
  EXPECT_EQ(registry.hits(FaultPoint::kAllocFail), 0u);
}

TEST_F(FaultRuntimeTest, FireWindowSkipsThenFiresThenExpires) {
  FaultRegistry& registry = FaultRegistry::Global();
  FaultSpec spec;
  spec.skip = 2;
  spec.max_fires = 3;
  registry.Arm(FaultPoint::kAllocFail, spec);

  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(registry.ShouldFire(FaultPoint::kAllocFail));
  }
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(registry.hits(FaultPoint::kAllocFail), 8u);
  EXPECT_EQ(registry.fires(FaultPoint::kAllocFail), 3u);
}

TEST_F(FaultRuntimeTest, ArmFromTextParsesClausesAndRejectsGarbage) {
  FaultRegistry& registry = FaultRegistry::Global();
  ASSERT_TRUE(registry
                  .ArmFromText("alloc-fail,worker-stall:5:2:1000,"
                               "clock-skew:0:1:999")
                  .ok());
  EXPECT_TRUE(registry.armed(FaultPoint::kAllocFail));
  EXPECT_TRUE(registry.armed(FaultPoint::kWorkerStall));
  EXPECT_EQ(registry.param(FaultPoint::kWorkerStall), 1000u);
  EXPECT_EQ(registry.param(FaultPoint::kClockSkew), 999u);
  EXPECT_FALSE(registry.armed(FaultPoint::kTornCheckpoint));

  EXPECT_FALSE(registry.ArmFromText("no-such-point").ok());
  EXPECT_FALSE(registry.ArmFromText("alloc-fail:not-a-number").ok());

  registry.Reset();
  EXPECT_FALSE(registry.AnyArmed());
  EXPECT_EQ(registry.hits(FaultPoint::kAllocFail), 0u);
}

TEST_F(FaultRuntimeTest, NamesRoundTrip) {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    const FaultPoint point = static_cast<FaultPoint>(i);
    const auto parsed = FaultRegistry::FromName(FaultRegistry::Name(point));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, point);
  }
  EXPECT_FALSE(FaultRegistry::FromName("bogus").has_value());
  EXPECT_FALSE(FaultRegistry::FromName("ring-full").has_value());
  EXPECT_FALSE(FaultRegistry::FromName("segment-torn-delta").has_value());
}

TEST_F(FaultRuntimeTest, ClockSkewShiftsFaultClockForward) {
  const std::uint64_t before = FaultClock::NowNanos();
  FaultSpec spec;
  spec.param = 60'000'000'000ull;  // one minute
  FaultRegistry::Global().Arm(FaultPoint::kClockSkew, spec);
  const std::uint64_t skewed = FaultClock::NowNanos();
  EXPECT_GE(skewed, before + spec.param);
  FaultRegistry::Global().Reset();
  EXPECT_LT(FaultClock::NowNanos(), before + spec.param);
}

// --- backoff ----------------------------------------------------------------

TEST_F(FaultRuntimeTest, JitteredBackoffStaysWithinBounds) {
  RetryOptions options;
  options.base_backoff_nanos = 1'000'000;
  options.max_backoff_nanos = 8'000'000;
  JitteredBackoff backoff(options);
  std::uint64_t cap = options.base_backoff_nanos;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const std::uint64_t delay = backoff.NextDelayNanos();
    EXPECT_GE(delay, cap / 2);
    EXPECT_LT(delay, cap + cap / 2);
    cap = std::min(cap * 2, options.max_backoff_nanos);
  }
}

TEST_F(FaultRuntimeTest, RetryWithBackoffRecoversFromTransientFailures) {
  RetryOptions options;
  options.max_attempts = 4;
  options.base_backoff_nanos = 1000;  // keep the test fast
  int calls = 0;
  const Status ok = RetryWithBackoff(options, [&] {
    ++calls;
    return calls < 3 ? Status::Internal("transient") : Status::OK();
  });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  const Status invalid = RetryWithBackoff(options, [&] {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(calls, 1) << "non-retryable codes must not be retried";
}

// --- torn-checkpoint fault / retry / crash-safety ---------------------------

TEST_F(FaultRuntimeTest, TornCheckpointKeepsThePreviousFileAndRetries) {
  const std::string path = TempPath("torn");
  const std::vector<std::uint8_t> first = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(WriteCheckpointFile(path, CheckpointTag::kEngineManifest, first)
                  .ok());

  // Unbounded tearing: every write attempt fails, and the previous
  // envelope must still open (atomic tmp+rename never exposed the torn
  // bytes under the real name).
  FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, FaultSpec{});
  const std::vector<std::uint8_t> second = {9, 9, 9};
  EXPECT_FALSE(
      WriteCheckpointFile(path, CheckpointTag::kEngineManifest, second).ok());
  StatusOr<std::vector<std::uint8_t>> readback =
      ReadCheckpointFile(path, CheckpointTag::kEngineManifest);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), first);

  // Bounded tearing + retry: the jittered-backoff wrapper rides through
  // two torn attempts and lands the third.
  FaultSpec torn_twice;
  torn_twice.max_fires = 2;
  FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, torn_twice);
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.base_backoff_nanos = 1000;
  const Status written = RetryWithBackoff(retry, [&] {
    return WriteCheckpointFile(path, CheckpointTag::kEngineManifest, second);
  });
  EXPECT_TRUE(written.ok());
  readback = ReadCheckpointFile(path, CheckpointTag::kEngineManifest);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), second);
  EXPECT_EQ(FaultRegistry::Global().fires(FaultPoint::kTornCheckpoint), 2u);
  std::remove(path.c_str());
}

TEST_F(FaultRuntimeTest, EngineCheckpointRecoversFromTornWritesViaRetry) {
  constexpr std::size_t kShards = 2;
  auto make = [](std::size_t) {
    return std::move(ExponentialHistogramEstimator::Create(0.1, 1 << 20))
        .value();
  };
  auto shards_or = AggregateShards::Create(kShards, 256, make);
  ASSERT_TRUE(shards_or.ok());
  AggregateShards shards = std::move(shards_or).value();
  for (std::uint64_t value = 1; value <= 200; ++value) {
    shards.Add(value % 40 + 1);
  }

  // Tear the first two write attempts; the retry wrapper must land a
  // complete, restorable checkpoint anyway.
  const std::string path = TempPath("engine_torn");
  FaultSpec torn_twice;
  torn_twice.max_fires = 2;
  FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, torn_twice);
  ASSERT_TRUE(shards.CheckpointTo(path).ok());
  EXPECT_EQ(FaultRegistry::Global().fires(FaultPoint::kTornCheckpoint), 2u);
  FaultRegistry::Global().Reset();

  auto restored_or = AggregateShards::Create(kShards, 256, make);
  ASSERT_TRUE(restored_or.ok());
  AggregateShards restored = std::move(restored_or).value();
  ASSERT_TRUE(restored.RestoreFrom(path).ok());
  EXPECT_EQ(restored.Merged().Estimate(), shards.Merged().Estimate());
  for (std::size_t i = 0; i < kShards; ++i) {
    std::remove(AggregateShards::ShardPath(path, i).c_str());
  }
  std::remove(path.c_str());
}

// --- alloc-fail fault / service degradation ---------------------------------

TEST_F(FaultRuntimeTest, AllocFailDegradesPromotionWithoutLosingAnswers) {
  ServiceOptions options;
  options.num_stripes = 1;
  options.promote_threshold = 4;
  options.enable_heavy_hitters = false;
  auto service_or = HImpactService::Create(options);
  ASSERT_TRUE(service_or.ok());
  HImpactService service = std::move(service_or).value();

  // Every promotion attempt fails: the user must stay cold (exact), the
  // failures must be counted, and estimates keep their meaning.
  FaultRegistry::Global().Arm(FaultPoint::kAllocFail, FaultSpec{});
  for (int i = 0; i < 8; ++i) service.RecordResponseCount(7, 10);
  UserSnapshot snapshot;
  ASSERT_TRUE(service.Lookup(7, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kCold);
  EXPECT_EQ(snapshot.estimate, 8.0) << "cold path stays exact";
  EXPECT_GE(service.Stats().registry.alloc_failures, 1u);

  // Disarm: the next event over the threshold promotes as usual.
  FaultRegistry::Global().Reset();
  service.RecordResponseCount(7, 10);
  ASSERT_TRUE(service.Lookup(7, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kHot);
  EXPECT_GE(snapshot.estimate, 8.0)
      << "promotion carries the exact floor forward";
}

// --- segment-map-fail fault / paged cold tier degradation -------------------

TEST_F(FaultRuntimeTest, SegmentMapFailDegradesColdGetsToFloorsNotCrashes) {
  const std::string dir = TempPath("segdir");
  ServiceOptions options;
  options.num_stripes = 1;
  options.promote_threshold = 16;
  options.enable_heavy_hitters = false;
  options.segment_dir = dir;
  // Budget for one and a half hot sketches: promoting a second heavy
  // user pages the first out to the segment store.
  options.memory_budget_bytes = 1u << 30;
  auto probe = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 50; ++i) probe.Add(1, 100);
  options.memory_budget_bytes =
      probe.Stats().resident_bytes + probe.Stats().resident_bytes / 2;
  auto service_or = HImpactService::Create(options);
  ASSERT_TRUE(service_or.ok());
  HImpactService service = std::move(service_or).value();
  for (int i = 0; i < 50; ++i) service.RecordResponseCount(1, 100);
  const double before = service.PointHIndex(1);
  for (int i = 0; i < 400; ++i) service.RecordResponseCount(2, 100);
  UserSnapshot snapshot;
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);
  EXPECT_EQ(snapshot.estimate, before) << "the floor is the live estimate";

  // A checkpoint flushes the store, sealing the pending record into a
  // real segment file — a reactivation must page its block in from
  // disk (the path the fault probes; pending-buffer hits never reach
  // it).
  const std::string ck = TempPath("segdir_ck");
  ASSERT_TRUE(service.CheckpointTo(ck).ok());

  // Every page-in fails while armed. A cold get reads no record: it
  // answers the floor, a valid lower bound, and never crashes.
  FaultRegistry::Global().Arm(FaultPoint::kSegmentMapFail, FaultSpec{});
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kSegment);
  EXPECT_LE(snapshot.estimate, before);
  EXPECT_GT(snapshot.estimate, 0.0) << "the floor survives the fault";

  // Disarm: the get still answers the pre-eviction estimate.
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.estimate, before);

  // Only a reactivating add reads the record. Armed, its page-in fails
  // and is counted, and the user continues on a fresh sketch over its
  // floor instead of crashing or losing the event.
  FaultRegistry::Global().Arm(FaultPoint::kSegmentMapFail, FaultSpec{});
  service.RecordResponseCount(1, 100);
  EXPECT_GE(service.Stats().registry.page_in_failures, 1u);
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  EXPECT_NE(snapshot.tier, UserTier::kSegment);
  EXPECT_GE(snapshot.estimate, before);
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    std::remove(HImpactService::StripePath(ck, i).c_str());
  }
  std::remove(ck.c_str());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// --- top deadline (TOP-LB) --------------------------------------------------

TEST_F(FaultRuntimeTest, DegradedTopKSkipsAWedgedStripeAndTagsTheAnswer) {
  ServiceOptions options;
  options.num_stripes = 4;
  options.enable_heavy_hitters = false;
  options.top_deadline_nanos = 50'000'000;  // 50ms
  auto service_or = HImpactService::Create(options);
  ASSERT_TRUE(service_or.ok());
  HImpactService service = std::move(service_or).value();
  // Distinct estimates: user u gets u responses of count 100, so the
  // exact cold-tier h-index is u and the board has no ties.
  for (std::uint64_t user = 1; user <= 40; ++user) {
    for (std::uint64_t i = 0; i < user; ++i) {
      service.RecordResponseCount(user, 100);
    }
  }
  const std::vector<LeaderboardEntry> full = service.TopK(10);
  std::map<AuthorId, double> reference;
  for (std::uint64_t user = 1; user <= 40; ++user) {
    UserSnapshot snapshot;
    ASSERT_TRUE(service.Lookup(user, &snapshot));
    reference[user] = snapshot.estimate;
  }

  // Wedge one stripe for 600ms and query under the 50ms deadline: the
  // answer must come back (availability), tagged with the skipped
  // stripe, and be a subset of the fault-free board.
  FaultSpec stall;
  stall.max_fires = 1;
  stall.param = 600'000;
  FaultRegistry::Global().Arm(FaultPoint::kWorkerStall, stall);
  std::thread stalled([&] { service.RecordResponseCount(1, 1); });
  while (FaultRegistry::Global().fires(FaultPoint::kWorkerStall) == 0) {
    std::this_thread::yield();
  }
  const StatusOr<TopKResult> degraded = service.TryTopK(10);
  stalled.join();
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().stripes_skipped, 1u);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
  // Lower-bound guarantee: every degraded entry reports at most the
  // user's true estimate (stripes that answered are exact; the wedged
  // stripe's users are simply absent, never misreported).
  for (const LeaderboardEntry& entry : degraded.value().entries) {
    const auto it = reference.find(entry.user);
    ASSERT_NE(it, reference.end()) << "degraded entry " << entry.user
                                   << " is not a tracked user";
    EXPECT_LE(entry.estimate, it->second)
        << "degraded entry " << entry.user
        << " overstates the fault-free estimate";
  }

  // Post-recovery parity: the undegraded query matches the fault-free
  // answer (the wedged stripe's state was never corrupted).
  const std::vector<LeaderboardEntry> after = service.TopK(10);
  ASSERT_EQ(after.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(after[i].user, full[i].user);
    EXPECT_GE(after[i].estimate, full[i].estimate);
  }
}

TEST_F(FaultRuntimeTest, LargestTopDeadlineWaitsInsteadOfWrapping) {
  // `--deadline-us 18446744073709551`: now + budget would wrap u64 into
  // a deadline already past, skipping a locked stripe at once. Budget 0
  // (no `--deadline-us`) takes each stripe lock blocking. Both must wait
  // out the wedged stripe.
  constexpr std::uint64_t kBudgets[] = {UINT64_MAX / 1000 * 1000, 0};
  for (const std::uint64_t budget : kBudgets) {
    SCOPED_TRACE(budget);
    FaultRegistry::Global().Reset();
    ServiceOptions options;
    options.num_stripes = 2;
    options.enable_heavy_hitters = false;
    options.top_deadline_nanos = budget;
    auto service_or = HImpactService::Create(options);
    ASSERT_TRUE(service_or.ok());
    HImpactService service = std::move(service_or).value();
    for (AuthorId user = 1; user <= 8; ++user) {
      service.RecordResponseCount(user, 5);
    }

    FaultSpec stall;
    stall.max_fires = 1;
    stall.param = 100'000;  // 100ms
    FaultRegistry::Global().Arm(FaultPoint::kWorkerStall, stall);
    std::thread stalled([&] { service.RecordResponseCount(1, 1); });
    while (FaultRegistry::Global().fires(FaultPoint::kWorkerStall) == 0) {
      std::this_thread::yield();
    }
    const StatusOr<TopKResult> top = service.TryTopK(8);
    stalled.join();
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(top.value().stripes_skipped, 0u);
    EXPECT_EQ(top.value().entries.size(), 8u);
    EXPECT_EQ(service.Stats().deadline_exceeded, 0u);
  }
}

TEST_F(FaultRuntimeTest, ClockSkewTripsDeadlinesInsteadOfHangingThem) {
  ServiceOptions options;
  options.num_stripes = 2;
  options.enable_heavy_hitters = false;
  options.top_deadline_nanos = 60'000'000'000ull;  // a minute: never hit
  auto service_or = HImpactService::Create(options);
  ASSERT_TRUE(service_or.ok());
  HImpactService service = std::move(service_or).value();
  for (AuthorId user = 1; user <= 8; ++user) {
    service.RecordResponseCount(user, 5);
  }

  // Wedge one stripe for 600ms, far under the minute budget: only the
  // skewed clock can make the scan give that stripe up.
  FaultSpec stall;
  stall.max_fires = 1;
  stall.param = 600'000;
  FaultRegistry::Global().Arm(FaultPoint::kWorkerStall, stall);
  std::thread stalled([&] { service.RecordResponseCount(1, 1); });
  while (FaultRegistry::Global().fires(FaultPoint::kWorkerStall) == 0) {
    std::this_thread::yield();
  }
  // skip=1: the deadline is computed from an unskewed read, then every
  // later FaultClock read jumps two minutes forward — the scan must
  // skip the wedged stripe as a counted miss, not wait out the stall.
  FaultSpec skew;
  skew.skip = 1;
  skew.param = 120'000'000'000ull;
  FaultRegistry::Global().Arm(FaultPoint::kClockSkew, skew);
  const StatusOr<TopKResult> top = service.TryTopK(8);
  stalled.join();
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().stripes_skipped, 1u);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

}  // namespace
}  // namespace himpact
