// The paged cold tier end to end: registry demotions page full user
// state into the mmap-backed segment store, a `get` answers the floor
// byte-identical to the pre-eviction answer without reading the store,
// and a reactivating add pages the state back in and continues the
// exact stream (no frozen-floor forgetting); a save cut short never
// restores older state; a checkpoint an earlier build extended with a
// delta chain is refused until a full save replaces it; and the whole
// paging + checkpoint machinery survives multi-thread load (the tsan
// preset runs this file). docs/SERVICE.md and docs/CHECKPOINTS.md state the
// contracts asserted here.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/service.h"
#include "common/bytes.h"
#include "common/envelope.h"
#include "io/checkpoint.h"

namespace himpact {
namespace {

// A scratch path unique to this process (tests may run in parallel).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "coldtier_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void RemoveCheckpoint(const std::string& path, std::size_t num_stripes) {
  for (std::size_t i = 0; i < num_stripes; ++i) {
    std::remove(HImpactService::StripePath(path, i).c_str());
  }
  std::remove(path.c_str());
}

ServiceOptions PagedOptions(const std::string& segment_dir) {
  ServiceOptions options;
  options.num_stripes = 1;
  options.promote_threshold = 16;
  options.enable_heavy_hitters = false;
  options.segment_dir = segment_dir;
  return options;
}

// The budget one stripe needs to hold cold user {5,5,5} and a hot user
// with 50 events, less one byte, measured with an unconstrained probe:
// touching either user then pages the other out.
std::uint64_t PairBudgetBytes(const std::string& segment_dir) {
  ServiceOptions options = PagedOptions(segment_dir);
  options.memory_budget_bytes = 1u << 30;
  auto probe = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 3; ++i) probe.Add(1, 5);
  for (int i = 0; i < 50; ++i) probe.Add(2, 100);
  return probe.Stats().resident_bytes - 1;
}

class ColdTierTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- evict -> floor answer byte-identity -------------------------------------

TEST_F(ColdTierTest, EvictedHotUserAnswersByteIdenticalFromItsFloor) {
  const std::string dir = TempPath("evict_hot");
  RemoveTree(dir);
  // Measure one hot user's footprint unconstrained, then budget for one
  // and a half hot sketches so promoting a second user must evict the
  // first (the service_test demotion recipe, now with paging on).
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = 1u << 30;
  auto probe = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 50; ++i) probe.Add(1, 100);
  const std::uint64_t hot_bytes = probe.Stats().resident_bytes;

  options.memory_budget_bytes = hot_bytes + hot_bytes / 2;
  auto registry = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 50; ++i) registry.Add(1, 100);
  const double before = registry.PointHIndex(1);
  EXPECT_GE(before, 30.0);
  for (int i = 0; i < 400; ++i) registry.Add(2, 100);

  // The victim was paged out, not frozen-and-forgotten...
  UserSnapshot snapshot;
  ASSERT_TRUE(registry.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);
  // ...and the cold get answers exactly what the pre-eviction state
  // answered.
  EXPECT_EQ(snapshot.estimate, before);
  EXPECT_EQ(registry.PointHIndex(1), before);

  const RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.segment_users, 1u);
  EXPECT_GE(stats.demotions, 1u);
  EXPECT_GE(stats.page_ins + stats.page_in_cache_hits +
                stats.segment_pending_records,
            1u)
      << "the state must have gone to the store";
  RemoveTree(dir);
}

TEST_F(ColdTierTest, ReactivationContinuesTheExactStream) {
  const std::string dir = TempPath("reactivate");
  RemoveTree(dir);
  // Cold user 1 sees {5,5,5}; a hot hog then evicts it; two more 5s
  // arrive. Paged continuation answers ExactH({5,5,5,5,5}) = 5. A
  // frozen fallback would answer max(floor 3, fresh-suffix H 2) = 3 —
  // the forgetting this tier exists to avoid. The budget is one byte
  // short of both users, so evicting the least-recent user (1) is both
  // necessary and sufficient.
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = PairBudgetBytes(dir);
  auto registry = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 3; ++i) registry.Add(1, 5);
  EXPECT_EQ(registry.PointHIndex(1), 3.0);
  for (int i = 0; i < 50; ++i) registry.Add(2, 100);
  UserSnapshot snapshot;
  ASSERT_TRUE(registry.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);

  registry.Add(1, 5);
  registry.Add(1, 5);
  ASSERT_TRUE(registry.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kCold)
      << "reactivation restores the exact cold state";
  EXPECT_EQ(registry.PointHIndex(1), 5.0)
      << "paged continuation must match the never-evicted stream";
  EXPECT_GE(registry.Stats().promotions, 1u);
  RemoveTree(dir);
}

// Lossless paging as a property: over seeded streams, a tiny-budget
// paged service answers every `add` and every user's `get` (estimate
// and events) exactly like an unbudgeted twin — paging round-trips
// state, it does not approximate it, and reactivated users continue
// their real sketches — and a run of gets reads no record: it moves
// none of the page-in counters.
TEST_F(ColdTierTest, PagedGetsMatchAnUnbudgetedTwinAndReadNoRecord) {
  // Seeds 3 and 17 run a budget that the bare records alone exceed, so
  // nearly every user is paged; 29 and 41 keep a resident working set.
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    const std::string dir = TempPath("lossless_" + std::to_string(seed));
    const std::string save = TempPath("lossless_ck");
    RemoveTree(dir);
    ServiceOptions options = PagedOptions(dir);
    options.num_stripes = 2;
    options.promote_threshold = 8;
    options.memory_budget_bytes = (seed < 20 ? 8 : 64) * 1024;
    auto paged = HImpactService::Create(options).value();
    ServiceOptions twin_options = options;
    twin_options.segment_dir.clear();
    twin_options.memory_budget_bytes = 1u << 30;
    auto twin = HImpactService::Create(twin_options).value();

    Rng rng(seed);
    ZipfSampler users(300, 1.1);
    DiscreteParetoSampler citations(1, 1.6, 1u << 10);
    for (int i = 1; i <= 12000; ++i) {
      const AuthorId user = users.Sample(rng);
      const std::uint64_t value = citations.Sample(rng);
      ASSERT_EQ(paged.RecordResponseCount(user, value),
                twin.RecordResponseCount(user, value))
          << "seed " << seed << " add " << i;
      // Seal the pending records so later reactivations read blocks.
      if (i == 4000) {
        ASSERT_TRUE(paged.CheckpointTo(save).ok());
      }
      if (i % 2000 != 0) continue;
      const RegistryStats before = paged.Stats().registry;
      for (AuthorId u = 1; u <= 300; ++u) {
        UserSnapshot got;
        UserSnapshot want;
        const bool seen = twin.Lookup(u, &want);
        ASSERT_EQ(paged.Lookup(u, &got), seen) << "user " << u;
        if (!seen) continue;
        EXPECT_EQ(got.estimate, want.estimate)
            << "seed " << seed << " user " << u << " after " << i;
        EXPECT_EQ(got.events, want.events)
            << "seed " << seed << " user " << u << " after " << i;
      }
      const RegistryStats after = paged.Stats().registry;
      EXPECT_EQ(after.page_ins, before.page_ins);
      EXPECT_EQ(after.page_in_cache_hits, before.page_in_cache_hits);
      EXPECT_EQ(after.page_in_failures, before.page_in_failures);
    }
    const RegistryStats stats = paged.Stats().registry;
    EXPECT_GT(stats.segment_users, 0u) << "seed " << seed;
    EXPECT_EQ(stats.frozen_users, 0u) << "seed " << seed;
    EXPECT_GT(stats.page_ins, 0u)
        << "reactivating adds must have read sealed records";
    EXPECT_EQ(stats.page_in_failures, 0u);
    RemoveCheckpoint(save, options.num_stripes);
    RemoveTree(dir);
  }
}

// A seal that fails (here every segment write is torn) must not turn a
// page-out into a loss: the record stays buffered, the victim stays
// paged and answers like an unbudgeted twin, and once the disk behaves
// again a save seals everything and a restore equals the live state.
TEST_F(ColdTierTest, FailedSealsKeepEveryVictimPagedAndLossless) {
  const std::string dir = TempPath("seal_fail");
  const std::string save = TempPath("seal_fail_ck");
  RemoveTree(dir);
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = 64 * 1024;
  auto service = HImpactService::Create(options).value();
  ServiceOptions twin_options = options;
  twin_options.segment_dir.clear();
  twin_options.memory_budget_bytes = 1u << 30;
  auto twin = HImpactService::Create(twin_options).value();

  constexpr AuthorId kUsers = 300;
  FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, FaultSpec{});
  // Each user turns hot in turn, paging out the least recent ones; then
  // a second pass reactivates every tenth user from the pending buffer.
  for (AuthorId user = 1; user <= kUsers; ++user) {
    for (int i = 0; i < 70; ++i) {
      const std::uint64_t value = 1 + (user * 7 + i * 13) % 97;
      service.RecordResponseCount(user, value);
      twin.RecordResponseCount(user, value);
    }
  }
  for (AuthorId user = 10; user <= kUsers; user += 10) {
    service.RecordResponseCount(user, 50);
    twin.RecordResponseCount(user, 50);
  }
  EXPECT_GE(FaultRegistry::Global().fires(FaultPoint::kTornCheckpoint), 1u)
      << "no seal was attempted";
  const RegistryStats armed = service.Stats().registry;
  EXPECT_EQ(armed.frozen_users, 0u) << "a failed seal froze a victim";
  EXPECT_GT(armed.segment_users, 0u);
  EXPECT_EQ(armed.segment_files, 0u);
  EXPECT_EQ(armed.segment_pending_records, armed.segment_users);
  for (AuthorId user = 1; user <= kUsers; ++user) {
    UserSnapshot got;
    UserSnapshot want;
    ASSERT_TRUE(service.Lookup(user, &got));
    ASSERT_TRUE(twin.Lookup(user, &want));
    EXPECT_NE(got.tier, UserTier::kFrozen) << "user " << user;
    EXPECT_EQ(got.estimate, want.estimate) << "user " << user;
    EXPECT_EQ(got.events, want.events) << "user " << user;
  }

  FaultRegistry::Global().Reset();
  ASSERT_TRUE(service.CheckpointTo(save).ok());
  const RegistryStats sealed = service.Stats().registry;
  EXPECT_EQ(sealed.segment_pending_records, 0u);
  EXPECT_GE(sealed.segment_files, 1u);
  auto restored = HImpactService::Create(options).value();
  ASSERT_TRUE(restored.RestoreFrom(save).ok());
  for (AuthorId user = 1; user <= kUsers; ++user) {
    UserSnapshot got;
    UserSnapshot want;
    ASSERT_TRUE(restored.Lookup(user, &got));
    ASSERT_TRUE(service.Lookup(user, &want));
    EXPECT_EQ(got.tier, want.tier) << "user " << user;
    EXPECT_EQ(got.estimate, want.estimate) << "user " << user;
    EXPECT_EQ(got.events, want.events) << "user " << user;
  }
  // The restored records page in: every reactivation continues exactly.
  for (AuthorId user = 1; user <= kUsers; user += 7) {
    EXPECT_EQ(restored.RecordResponseCount(user, 60),
              twin.RecordResponseCount(user, 60))
        << "user " << user;
  }
  EXPECT_EQ(restored.Stats().registry.page_in_failures, 0u);
  RemoveCheckpoint(save, options.num_stripes);
  RemoveTree(dir);
}

TEST_F(ColdTierTest, CheckpointRestoresPagedUsersIntoAnyService) {
  const std::string dir = TempPath("restore_dir");
  const std::string save = TempPath("restore_ck");
  RemoveTree(dir);
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = PairBudgetBytes(dir);
  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 3; ++i) service.RecordResponseCount(1, 5);
  for (int i = 0; i < 50; ++i) service.RecordResponseCount(2, 100);
  UserSnapshot snapshot;
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);
  ASSERT_TRUE(service.CheckpointTo(save).ok());

  // Same segment directory: the restored service reattaches the sealed
  // files and pages the user in as before.
  auto same_dir = HImpactService::Create(options).value();
  ASSERT_TRUE(same_dir.RestoreFrom(save).ok());
  ASSERT_TRUE(same_dir.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kSegment);
  EXPECT_EQ(snapshot.estimate, 3.0);
  // Reactivation still works across the restart.
  same_dir.RecordResponseCount(1, 5);
  same_dir.RecordResponseCount(1, 5);
  EXPECT_EQ(same_dir.PointHIndex(1), 5.0);

  // No segment directory: the record is unreachable, so the user serves
  // its floor and converts to the frozen path on its next event — the
  // documented degradation, never a crash.
  ServiceOptions storeless = options;
  storeless.segment_dir.clear();
  auto no_dir = HImpactService::Create(storeless).value();
  ASSERT_TRUE(no_dir.RestoreFrom(save).ok());
  ASSERT_TRUE(no_dir.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.estimate, 3.0) << "floor answer without the store";
  no_dir.RecordResponseCount(1, 5);
  ASSERT_TRUE(no_dir.Lookup(1, &snapshot));
  EXPECT_NE(snapshot.tier, UserTier::kSegment);
  EXPECT_GE(snapshot.estimate, 3.0);

  RemoveCheckpoint(save, options.num_stripes);
  RemoveTree(dir);
}

// A restore rebuilds each stripe's resident list from its payload, so
// the restored service demotes the same victims as the live one it was
// saved from: fed the same suffix, both end in the same tiers.
TEST_F(ColdTierTest, RestoredServiceEvictsTheSameVictimsAsTheLiveOne) {
  const std::string dir = TempPath("victims_live");
  const std::string copy = TempPath("victims_restored");
  const std::string save = TempPath("victims_ck");
  RemoveTree(dir);
  RemoveTree(copy);
  ServiceOptions options = PagedOptions(dir);
  options.num_stripes = 2;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 128 * 1024;
  auto live = HImpactService::Create(options).value();
  Rng rng(53);
  ZipfSampler users(200, 1.2);
  DiscreteParetoSampler citations(1, 1.6, 1u << 10);
  for (int i = 0; i < 8000; ++i) {
    live.RecordResponseCount(users.Sample(rng), citations.Sample(rng));
  }
  ASSERT_TRUE(live.CheckpointTo(save).ok());
  // The restored service pages into its own copy of the segment files.
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  ServiceOptions restored_options = options;
  restored_options.segment_dir = copy;
  auto restored = HImpactService::Create(restored_options).value();
  ASSERT_TRUE(restored.RestoreFrom(save).ok());
  std::vector<AuthorId> residents;
  for (AuthorId user = 1; user <= 200; ++user) {
    UserSnapshot snapshot;
    if (restored.Lookup(user, &snapshot) &&
        (snapshot.tier == UserTier::kCold || snapshot.tier == UserTier::kHot)) {
      residents.push_back(user);
    }
  }
  ASSERT_FALSE(residents.empty());

  // The suffix touches only new users, so the restored residents stay
  // untouched and only the budget scan can demote them.
  for (int i = 0; i < 4000; ++i) {
    const AuthorId user = 1000 + users.Sample(rng);
    const std::uint64_t value = citations.Sample(rng);
    ASSERT_EQ(restored.RecordResponseCount(user, value),
              live.RecordResponseCount(user, value))
        << "add " << i;
  }
  for (AuthorId user = 1; user <= 1200; ++user) {
    UserSnapshot got;
    UserSnapshot want;
    const bool seen = live.Lookup(user, &want);
    ASSERT_EQ(restored.Lookup(user, &got), seen) << "user " << user;
    if (!seen) continue;
    EXPECT_EQ(got.tier, want.tier) << "user " << user;
    EXPECT_EQ(got.events, want.events) << "user " << user;
  }
  std::size_t paged_residents = 0;
  for (const AuthorId user : residents) {
    UserSnapshot snapshot;
    ASSERT_TRUE(live.Lookup(user, &snapshot));
    if (snapshot.tier == UserTier::kSegment) ++paged_residents;
  }
  EXPECT_GT(paged_residents, 0u) << "the suffix demoted no restored resident";
  RemoveCheckpoint(save, options.num_stripes);
  RemoveTree(dir);
  RemoveTree(copy);
}

// After a save, cold user `cold` (3 x 5) gets 4 more 5s, which pages it
// back in and its hot neighbour out; one add to `hot` pages it out
// again. The record of its 7 events is newer than any save before.
void RepageAfterTheSave(HImpactService& service, AuthorId cold, AuthorId hot) {
  for (int i = 0; i < 4; ++i) service.RecordResponseCount(cold, 5);
  service.RecordResponseCount(hot, 100);
}

void ExpectSameUser(const HImpactService& got, const HImpactService& want,
                    AuthorId user) {
  UserSnapshot a;
  UserSnapshot b;
  ASSERT_TRUE(got.Lookup(user, &a)) << "user " << user;
  ASSERT_TRUE(want.Lookup(user, &b)) << "user " << user;
  EXPECT_EQ(a.estimate, b.estimate) << "user " << user;
  EXPECT_EQ(a.events, b.events) << "user " << user;
}

TEST_F(ColdTierTest, RestoreIgnoresSegmentGenerationsSealedAfterTheSave) {
  const std::string dir = TempPath("later_gen_dir");
  const std::string save_a = TempPath("later_gen_a");
  const std::string save_b = TempPath("later_gen_b");
  RemoveTree(dir);
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = PairBudgetBytes(dir);

  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 3; ++i) service.RecordResponseCount(1, 5);
  for (int i = 0; i < 50; ++i) service.RecordResponseCount(2, 100);
  UserSnapshot snapshot;
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);
  ASSERT_EQ(snapshot.estimate, 3.0);
  ASSERT_TRUE(service.CheckpointTo(save_a).ok());

  // Past checkpoint A: user 1 reaches 7 events and is paged out again,
  // and a second save seals that record into a newer generation.
  RepageAfterTheSave(service, 1, 2);
  ASSERT_TRUE(service.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kSegment);
  ASSERT_EQ(snapshot.events, 7u);
  ASSERT_EQ(snapshot.estimate, 5.0);
  ASSERT_TRUE(service.CheckpointTo(save_b).ok());

  // Restoring A answers what A saw, not the newer record...
  auto restored = HImpactService::Create(options).value();
  ASSERT_TRUE(restored.RestoreFrom(save_a).ok());
  ASSERT_TRUE(restored.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kSegment);
  EXPECT_EQ(snapshot.events, 3u);
  EXPECT_EQ(snapshot.estimate, 3.0) << "answered from a post-save record";

  // ...so replaying the post-save events (what a WAL replay does) lands
  // exactly on the uncrashed service, with no event applied twice.
  RepageAfterTheSave(restored, 1, 2);
  ExpectSameUser(restored, service, 1);
  ExpectSameUser(restored, service, 2);

  // Seals continue from the bound: the restored service's next save
  // overwrites the stale generation, and restoring it stays exact.
  ASSERT_TRUE(restored.CheckpointTo(save_a).ok());
  auto again = HImpactService::Create(options).value();
  ASSERT_TRUE(again.RestoreFrom(save_a).ok());
  ExpectSameUser(again, service, 1);
  ExpectSameUser(again, service, 2);

  RemoveCheckpoint(save_a, options.num_stripes);
  RemoveCheckpoint(save_b, options.num_stripes);
  RemoveTree(dir);
}

TEST_F(ColdTierTest, V1StripePayloadStillRestoresByteIdentically) {
  const std::string dir = TempPath("v1_dir");
  RemoveTree(dir);
  ServiceOptions options = PagedOptions(dir);
  options.memory_budget_bytes = PairBudgetBytes(dir);
  auto registry = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 3; ++i) registry.Add(1, 5);
  for (int i = 0; i < 50; ++i) registry.Add(2, 100);
  ByteWriter writer;
  registry.SerializeStripe(0, writer);
  const std::vector<std::uint8_t> v2 = writer.Take();

  // HIMPSRG1 is HIMPSRG2 without the generation bound after the
  // three-word header.
  std::vector<std::uint8_t> v1 = v2;
  ASSERT_EQ(v1[0], '2');
  v1[0] = '1';
  v1.erase(v1.begin() + 24, v1.begin() + 32);

  auto restored = TieredUserRegistry::Create(options).value();
  ByteReader reader(v1);
  ASSERT_TRUE(restored.DeserializeStripe(0, reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  UserSnapshot snapshot;
  ASSERT_TRUE(restored.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kSegment);
  EXPECT_EQ(snapshot.estimate, 3.0);
  ByteWriter reencoded;
  restored.SerializeStripe(0, reencoded);
  EXPECT_EQ(reencoded.Take(), v2);
  RemoveTree(dir);
}

TEST_F(ColdTierTest, RestoreWithoutSegmentFilesServesFloorsAndCountsFailures) {
  const std::string dir = TempPath("lost_dir");
  const std::string empty_dir = TempPath("lost_empty_dir");
  const std::string save = TempPath("lost_ck");
  RemoveTree(dir);
  RemoveTree(empty_dir);
  ServiceOptions options = PagedOptions(dir);
  options.num_stripes = 2;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 24 * 1024;
  auto service = HImpactService::Create(options).value();
  Rng rng(31);
  ZipfSampler users(200, 1.2);
  DiscreteParetoSampler citations(1, 1.6, 1u << 10);
  for (int i = 0; i < 15000; ++i) {
    service.RecordResponseCount(users.Sample(rng), citations.Sample(rng));
  }
  ASSERT_GT(service.Stats().registry.segment_users, 0u);
  ASSERT_TRUE(service.CheckpointTo(save).ok());

  // The checkpoint restored next to an empty segment directory: every
  // paged user's record is gone. A service with no segment directory
  // at all serves the frozen floors, which is the expected answer.
  ServiceOptions lost = options;
  lost.segment_dir = empty_dir;
  auto restored = HImpactService::Create(lost).value();
  ASSERT_TRUE(restored.RestoreFrom(save).ok());
  ServiceOptions storeless = options;
  storeless.segment_dir.clear();
  auto floors = HImpactService::Create(storeless).value();
  ASSERT_TRUE(floors.RestoreFrom(save).ok());

  const std::uint64_t failures_before =
      restored.Stats().registry.page_in_failures;
  std::uint64_t paged_reads = 0;
  for (AuthorId user = 1; user <= 200; ++user) {
    UserSnapshot snapshot;
    if (!restored.Lookup(user, &snapshot)) continue;
    if (snapshot.tier != UserTier::kSegment) continue;
    ++paged_reads;
    UserSnapshot floor;
    ASSERT_TRUE(floors.Lookup(user, &floor));
    EXPECT_EQ(snapshot.estimate, floor.estimate) << "user " << user;
    EXPECT_LE(snapshot.estimate, service.PointHIndex(user)) << "user " << user;
  }
  ASSERT_GT(paged_reads, 0u);
  EXPECT_EQ(restored.Stats().registry.page_in_failures, failures_before)
      << "a get reads no record";
  // Only a reactivating add reads the record, so each one fails here.
  for (AuthorId user = 1; user <= 200; ++user) {
    UserSnapshot snapshot;
    if (restored.Lookup(user, &snapshot) &&
        snapshot.tier == UserTier::kSegment) {
      restored.RecordResponseCount(user, 1);
    }
  }
  EXPECT_GE(restored.Stats().registry.page_in_failures - failures_before,
            paged_reads)
      << "every read of a lost record is a failed page-in";

  RemoveCheckpoint(save, options.num_stripes);
  RemoveTree(dir);
  RemoveTree(empty_dir);
}

// --- full saves and the delta-chain upgrade rule ----------------------------

ServiceOptions CheckpointOptions() {
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 8;
  options.enable_heavy_hitters = false;
  return options;
}

std::map<AuthorId, double> AllEstimates(const HImpactService& service,
                                        AuthorId max_user) {
  std::map<AuthorId, double> estimates;
  for (AuthorId user = 1; user <= max_user; ++user) {
    UserSnapshot snapshot;
    if (service.Lookup(user, &snapshot)) estimates[user] = snapshot.estimate;
  }
  return estimates;
}

// Writes the `path.head` an earlier build's delta chain kept next to its
// full save: a `kDeltaHead` envelope naming `generation`.
void WriteChainHead(const std::string& path, std::uint64_t generation) {
  ByteWriter head;
  head.U64(0x31444844504D4948ULL);  // HIMPDHD1
  head.U64(generation);
  ASSERT_TRUE(WriteCheckpointFile(path + ".head", CheckpointTag::kDeltaHead,
                                  head.buffer())
                  .ok());
}

// What sits at `path.head` when a full save over it is cut short.
enum class StaleHead { kNone, kGeneration3, kUndecodable };

TEST_F(ColdTierTest, FullSaveCutShortNeverRestoresOlderState) {
  // A full save rewrites every stripe file, then the manifest. Cut it
  // short at each of those writes in turn: the restore must never land
  // behind the previous save, and the next save must restore exactly.
  // Over an earlier build's delta chain, the head must outlive every
  // cut before the last stripe lands, so such a restore is refused
  // rather than reading the chain's root mixed with new stripes.
  const ServiceOptions options = CheckpointOptions();
  const std::size_t writes = options.num_stripes + 1;  // + manifest
  for (StaleHead stale :
       {StaleHead::kNone, StaleHead::kGeneration3, StaleHead::kUndecodable}) {
    for (std::size_t completed = 0; completed < writes; ++completed) {
      const std::string at = "head " + std::to_string(static_cast<int>(stale)) +
                             " after " + std::to_string(completed) +
                             " completed writes";
      const std::string save = TempPath("cut_full_ck");
      auto service = HImpactService::Create(options).value();
      Rng rng(47);
      for (int i = 0; i < 2000; ++i) {
        service.RecordResponseCount(1 + rng.UniformU64(64),
                                    1 + rng.UniformU64(40));
      }
      ASSERT_TRUE(service.CheckpointTo(save).ok());
      const std::map<AuthorId, double> previous = AllEstimates(service, 64);
      for (int i = 0; i < 500; ++i) {
        service.RecordResponseCount(1 + rng.UniformU64(64),
                                    1 + rng.UniformU64(40));
      }
      if (stale == StaleHead::kGeneration3) WriteChainHead(save, 3);
      if (stale == StaleHead::kUndecodable) {
        std::FILE* head = std::fopen((save + ".head").c_str(), "wb");
        ASSERT_NE(head, nullptr);
        std::fputs("not a checkpoint envelope", head);
        std::fclose(head);
      }

      FaultSpec cut;
      cut.skip = completed;
      FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, cut);
      EXPECT_FALSE(service.CheckpointTo(save).ok());
      FaultRegistry::Global().Reset();

      auto restored = HImpactService::Create(options).value();
      const Status status = restored.RestoreFrom(save);
      if (stale != StaleHead::kNone && completed < options.num_stripes) {
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << at;
        EXPECT_TRUE(std::filesystem::exists(save + ".head")) << at;
        EXPECT_TRUE(AllEstimates(restored, 64).empty()) << at;
      } else {
        ASSERT_TRUE(status.ok()) << at << ": " << status.message();
        EXPECT_FALSE(std::filesystem::exists(save + ".head")) << at;
        const std::map<AuthorId, double> got = AllEstimates(restored, 64);
        for (const auto& [user, estimate] : previous) {
          const auto it = got.find(user);
          ASSERT_NE(it, got.end()) << "user " << user << ", " << at;
          EXPECT_GE(it->second, estimate) << "user " << user << ", " << at;
        }
      }

      // The next save after the cut one restores the live service exactly.
      for (int i = 0; i < 20; ++i) service.RecordResponseCount(7, 2000);
      ASSERT_TRUE(service.CheckpointTo(save).ok());
      EXPECT_FALSE(std::filesystem::exists(save + ".head")) << at;
      auto resumed = HImpactService::Create(options).value();
      ASSERT_TRUE(resumed.RestoreFrom(save).ok());
      EXPECT_EQ(resumed.Stats().registry.total_events,
                service.Stats().registry.total_events)
          << at;
      EXPECT_EQ(AllEstimates(resumed, 64), AllEstimates(service, 64)) << at;
      RemoveCheckpoint(save, options.num_stripes);
    }
  }
}

TEST_F(ColdTierTest, ChainHeadPastGenerationZeroIsRefusedUntilAFullSave) {
  const std::string save = TempPath("chain_head_ck");
  const ServiceOptions options = CheckpointOptions();
  auto service = HImpactService::Create(options).value();
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    service.RecordResponseCount(1 + rng.UniformU64(32), 1 + rng.UniformU64(20));
  }
  ASSERT_TRUE(service.CheckpointTo(save).ok());
  const std::map<AuthorId, double> saved = AllEstimates(service, 32);

  // The newest state of a chain at generation 3 lives in deltas this
  // build does not read; the stripe files may hold only its root.
  WriteChainHead(save, 3);
  auto target = HImpactService::Create(options).value();
  for (int i = 0; i < 5; ++i) target.RecordResponseCount(40, 9);
  const std::map<AuthorId, double> before = AllEstimates(target, 64);
  const Status refused = target.RestoreFrom(save);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("generation 3"), std::string::npos)
      << refused.message();
  EXPECT_EQ(AllEstimates(target, 64), before)
      << "a refused restore must leave the service unchanged";

  // A head at generation 0 pins the stripe files themselves.
  WriteChainHead(save, 0);
  auto at_root = HImpactService::Create(options).value();
  ASSERT_TRUE(at_root.RestoreFrom(save).ok());
  EXPECT_EQ(AllEstimates(at_root, 32), saved);

  // A full save over the chain removes its head, and restores exactly.
  WriteChainHead(save, 3);
  service.RecordResponseCount(2, 50);
  ASSERT_TRUE(service.CheckpointTo(save).ok());
  EXPECT_FALSE(std::filesystem::exists(save + ".head"));
  auto again = HImpactService::Create(options).value();
  ASSERT_TRUE(again.RestoreFrom(save).ok());
  EXPECT_EQ(again.Stats().registry.total_events,
            service.Stats().registry.total_events);
  EXPECT_EQ(AllEstimates(again, 32), AllEstimates(service, 32));
  RemoveCheckpoint(save, options.num_stripes);
}

// --- concurrency (the tsan target) -------------------------------------------

TEST_F(ColdTierTest, ConcurrentPagingAndFullCheckpointsStayCoherent) {
  const std::string dir = TempPath("concurrent_dir");
  const std::string save = TempPath("concurrent_ck");
  RemoveTree(dir);
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 32 * 1024;  // heavy paging churn
  options.enable_heavy_hitters = false;
  options.segment_dir = dir;
  auto service = HImpactService::Create(options).value();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&service, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      ZipfSampler users(300, 1.1);
      DiscreteParetoSampler citations(1, 1.6, 1u << 10);
      for (int i = 0; i < 6000; ++i) {
        service.RecordResponseCount(users.Sample(rng), citations.Sample(rng));
      }
    });
  }
  std::thread reader([&service, &stop] {
    Rng rng(999);
    while (!stop.load(std::memory_order_acquire)) {
      service.PointHIndex(1 + rng.UniformU64(300));
      UserSnapshot snapshot;
      service.Lookup(1 + rng.UniformU64(300), &snapshot);
      service.TopK(8);
    }
  });
  std::thread checkpointer([&service, &save, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      // Full saves, concurrently with ingest and paging.
      ASSERT_TRUE(service.CheckpointTo(save).ok());
      SleepForMicros(2000);
    }
  });
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  checkpointer.join();
  ASSERT_TRUE(service.CheckpointTo(save).ok());
  ASSERT_GT(service.Stats().registry.demotions, 0u)
      << "the run never exercised paging";

  // The final quiesced save restores every live answer exactly.
  auto restored = HImpactService::Create(options).value();
  ASSERT_TRUE(restored.RestoreFrom(save).ok());
  EXPECT_EQ(restored.Stats().registry.total_events,
            service.Stats().registry.total_events)
      << "the final quiesced save must capture every event";
  for (AuthorId user = 1; user <= 300; ++user) {
    UserSnapshot live;
    if (!service.Lookup(user, &live)) continue;
    UserSnapshot back;
    ASSERT_TRUE(restored.Lookup(user, &back)) << "user " << user;
    EXPECT_EQ(back.estimate, live.estimate) << "user " << user;
  }
  RemoveCheckpoint(save, options.num_stripes);
  RemoveTree(dir);
}

}  // namespace
}  // namespace himpact
