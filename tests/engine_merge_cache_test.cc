// Query cache correctness (docs/PERFORMANCE.md):
//   - registry: the merged TopK() board across a stripe-serialization
//               round trip and a write that changes the leader;
//   - service:  the HeavyReport() epoch cache of the one grid across
//               mutation and restore.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "fault/fault.h"
#include "random/rng.h"
#include "service/registry.h"
#include "service/service.h"
#include "stream/types.h"

namespace himpact {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "merge_cache_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

class MergeCacheTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- registry TopK ----------------------------------------------------------

ServiceOptions RegistryOptions() {
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 16;
  options.leaderboard_capacity = 32;
  options.enable_heavy_hitters = false;
  return options;
}

TEST_F(MergeCacheTest, RegistryTopKSurvivesRoundTripAndSurfacesNewLeader) {
  auto registry = TieredUserRegistry::Create(RegistryOptions()).value();
  Rng rng(37);
  for (AuthorId user = 1; user <= 200; ++user) {
    for (int i = 0; i < 8; ++i) {
      registry.Add(user, 1 + rng.UniformU64(100));
    }
  }
  const auto first = registry.TopK(10);

  // A re-merge through a stripe round trip must agree entry for entry.
  auto restored = TieredUserRegistry::Create(RegistryOptions()).value();
  for (std::size_t s = 0; s < registry.num_stripes(); ++s) {
    ByteWriter writer;
    registry.SerializeStripe(s, writer);
    ByteReader reader(writer.buffer());
    ASSERT_TRUE(restored.DeserializeStripe(s, reader).ok());
  }
  const auto round_trip = restored.TopK(10);
  ASSERT_EQ(round_trip.size(), first.size());
  for (std::size_t i = 0; i < round_trip.size(); ++i) {
    EXPECT_EQ(round_trip[i].user, first[i].user);
    EXPECT_EQ(round_trip[i].estimate, first[i].estimate);
  }

  // A write that changes a leaderboard surfaces the new leader.
  for (int i = 0; i < 20; ++i) registry.Add(999, 100000);
  const auto after = registry.TopK(10);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front().user, 999u);
}

// --- service HeavyReport epoch cache ----------------------------------------

TEST_F(MergeCacheTest, ServiceHeavyReportCachedEqualsRecomputeAndRestores) {
  ServiceOptions options = RegistryOptions();
  options.enable_heavy_hitters = true;
  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 60; ++i) service.RecordResponseCount(777, 200);
  for (AuthorId user = 1; user <= 30; ++user) {
    service.RecordResponseCount(user, 3);
  }

  const auto first = service.HeavyReport();
  const auto warm = service.HeavyReport();
  EXPECT_GE(service.Stats().hh_report_cache_hits, 1u);
  ASSERT_EQ(first.size(), warm.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].author, warm[i].author);
  }

  // New responses bump the grid epoch: recompute, not a stale hit.
  const std::uint64_t misses_before = service.Stats().hh_report_cache_misses;
  for (int i = 0; i < 80; ++i) service.RecordResponseCount(888, 500);
  const auto after = service.HeavyReport();
  EXPECT_GT(service.Stats().hh_report_cache_misses, misses_before);
  ASSERT_FALSE(after.empty());

  // Checkpoint/restore: the restored service's (cold) report must match
  // the source's cached one, and the source's restore must not serve its
  // pre-restore cache.
  const std::string path = TempPath("service");
  ASSERT_TRUE(service.CheckpointTo(path).ok());
  auto resumed = HImpactService::Create(options).value();
  ASSERT_TRUE(resumed.RestoreFrom(path).ok());
  const auto source_report = service.HeavyReport();
  const auto resumed_report = resumed.HeavyReport();
  ASSERT_EQ(source_report.size(), resumed_report.size());
  for (std::size_t i = 0; i < source_report.size(); ++i) {
    EXPECT_EQ(source_report[i].author, resumed_report[i].author);
  }
  const std::uint64_t misses = service.Stats().hh_report_cache_misses;
  ASSERT_TRUE(service.RestoreFrom(path).ok());
  (void)service.HeavyReport();
  EXPECT_EQ(service.Stats().hh_report_cache_misses, misses + 1);

  std::remove(path.c_str());
  std::remove(HImpactService::GridPath(path).c_str());
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    std::remove(HImpactService::StripePath(path, i).c_str());
  }
}

}  // namespace
}  // namespace himpact
