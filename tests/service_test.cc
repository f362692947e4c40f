// Tests for the multi-tenant query service (src/service/): tier
// transitions of the registry (cold exactness, promotion guarantee,
// demotion lower bounds under a memory budget), leaderboard-vs-exact
// agreement, deterministic stripe serialization, and the service-level
// checkpoint — including the kill-and-resume property the service
// promises: a restored service answers every query byte-identically to
// the one that wrote the checkpoint, before and after both consume the
// same suffix of events.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/exponential_histogram.h"
#include "fault_injection.h"
#include "io/checkpoint.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/registry.h"
#include "service/service.h"

namespace {

using namespace himpact;

std::string TempPath(const char* name) {
  std::string path = "/tmp/himpact_service_test_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(::getpid()));
  return path;
}

std::vector<std::uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void RemoveServiceCheckpoint(const std::string& path, std::size_t stripes) {
  std::remove(path.c_str());
  for (std::size_t i = 0; i < stripes; ++i) {
    std::remove(HImpactService::StripePath(path, i).c_str());
  }
}

// The exact H-index of a value multiset (reference for every tier).
std::uint64_t ExactH(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end(), std::greater<std::uint64_t>());
  std::uint64_t h = 0;
  while (h < values.size() && values[h] >= h + 1) ++h;
  return h;
}

ServiceOptions SmallOptions() {
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 16;
  options.leaderboard_capacity = 32;
  options.enable_heavy_hitters = false;
  return options;
}

// --- registry: option validation ---------------------------------------------

TEST(RegistryCreate, RejectsBadOptions) {
  ServiceOptions options;
  options.eps = 0.0;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  options = ServiceOptions();
  options.num_stripes = 0;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  options = ServiceOptions();
  options.promote_threshold = 0;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  options = ServiceOptions();
  options.memory_budget_bytes = 0;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  options = ServiceOptions();
  options.leaderboard_capacity = 0;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  options = ServiceOptions();
  options.hh_eps = 1.5;
  EXPECT_FALSE(TieredUserRegistry::Create(options).ok());
  EXPECT_TRUE(TieredUserRegistry::Create(ServiceOptions()).ok());
}

// --- registry: tier semantics ------------------------------------------------

TEST(RegistryTiers, ColdTierIsExact) {
  auto registry = TieredUserRegistry::Create(SmallOptions()).value();
  std::vector<std::uint64_t> values;
  Rng rng(3);
  // Stay below promote_threshold so the user remains cold throughout.
  for (int i = 0; i < 15; ++i) {
    values.push_back(rng.UniformU64(20));
    const double estimate = registry.Add(42, values.back());
    EXPECT_EQ(estimate, static_cast<double>(ExactH(values)));
  }
  UserSnapshot snapshot;
  ASSERT_TRUE(registry.Lookup(42, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kCold);
  EXPECT_EQ(snapshot.events, 15u);
}

TEST(RegistryTiers, PromotionKeepsTheSketchGuarantee) {
  ServiceOptions options = SmallOptions();
  options.eps = 0.2;
  auto registry = TieredUserRegistry::Create(options).value();
  std::vector<std::uint64_t> values;
  Rng rng(7);
  DiscreteParetoSampler citations(1, 1.5, 1u << 16);
  double estimate = 0.0;
  for (int i = 0; i < 400; ++i) {
    values.push_back(citations.Sample(rng));
    estimate = registry.Add(99, values.back());
  }
  UserSnapshot snapshot;
  ASSERT_TRUE(registry.Lookup(99, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kHot);
  const double exact = static_cast<double>(ExactH(values));
  // Algorithm 1's one-sided guarantee survives the replay-on-promote:
  // (1-eps) h* <= estimate <= h*.
  EXPECT_LE(estimate, exact);
  EXPECT_GE(estimate, (1.0 - options.eps) * exact - 1e-9);
}

TEST(RegistryTiers, EstimatesAreMonotoneNonDecreasing) {
  ServiceOptions options = SmallOptions();
  options.promote_threshold = 8;
  // A budget small enough to force demotions mid-stream.
  options.memory_budget_bytes = 64 * 1024;
  auto registry = TieredUserRegistry::Create(options).value();
  Rng rng(11);
  ZipfSampler users(500, 1.2);
  DiscreteParetoSampler citations(1, 1.6, 1u << 12);
  std::map<AuthorId, double> last_estimate;
  for (int i = 0; i < 20000; ++i) {
    const AuthorId user = users.Sample(rng);
    const double estimate = registry.Add(user, citations.Sample(rng));
    const auto it = last_estimate.find(user);
    if (it != last_estimate.end()) {
      // Demotion freezes a floor, so the reported estimate never drops —
      // the property the maintained leaderboard's correctness rests on.
      EXPECT_GE(estimate, it->second) << "user " << user;
    }
    last_estimate[user] = estimate;
  }
  const RegistryStats stats = registry.Stats();
  EXPECT_GT(stats.demotions, 0u) << "budget pressure never triggered";
}

TEST(RegistryTiers, DemotionKeepsEstimatesLowerBounds) {
  ServiceOptions options = SmallOptions();
  options.promote_threshold = 8;
  options.memory_budget_bytes = 32 * 1024;
  options.eps = 0.2;
  auto registry = TieredUserRegistry::Create(options).value();
  Rng rng(13);
  ZipfSampler users(300, 1.1);
  DiscreteParetoSampler citations(1, 1.6, 1u << 12);
  std::map<AuthorId, std::vector<std::uint64_t>> streams;
  for (int i = 0; i < 30000; ++i) {
    const AuthorId user = users.Sample(rng);
    const std::uint64_t value = citations.Sample(rng);
    streams[user].push_back(value);
    registry.Add(user, value);
  }
  const RegistryStats stats = registry.Stats();
  ASSERT_GT(stats.demotions, 0u);
  ASSERT_GT(stats.frozen_users, 0u);
  for (const auto& [user, values] : streams) {
    // Every tier reports a lower bound on the true H-index; frozen
    // users may be stale but never overshoot.
    EXPECT_LE(registry.PointHIndex(user),
              static_cast<double>(ExactH(values)) + 1e-9)
        << "user " << user;
  }
}

TEST(RegistryTiers, FrozenUserReactivatesWithItsFloor) {
  ServiceOptions options = SmallOptions();
  options.num_stripes = 1;
  options.promote_threshold = 4;
  // Measure one hot user's footprint with an unconstrained probe, then
  // size the budget to hold one and a half hot sketches: promoting a
  // second heavy user must evict the first.
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
  UserSnapshot snapshot;
  ASSERT_TRUE(registry.Lookup(1, &snapshot));
  ASSERT_EQ(snapshot.tier, UserTier::kFrozen);
  EXPECT_EQ(registry.PointHIndex(1), before);
  // Reactivation: new events re-promote, and the floor keeps the
  // estimate from restarting at zero.
  registry.Add(1, 100);
  ASSERT_TRUE(registry.Lookup(1, &snapshot));
  EXPECT_EQ(snapshot.tier, UserTier::kHot);
  EXPECT_GE(registry.PointHIndex(1), before);
}

// --- registry: leaderboard ---------------------------------------------------

TEST(RegistryTopK, MatchesExactRankingWithAmpleCapacity) {
  ServiceOptions options = SmallOptions();
  options.leaderboard_capacity = 64;
  auto registry = TieredUserRegistry::Create(options).value();
  Rng rng(17);
  ZipfSampler users(40, 1.3);
  DiscreteParetoSampler citations(1, 1.5, 1u << 12);
  std::map<AuthorId, std::vector<std::uint64_t>> streams;
  for (int i = 0; i < 5000; ++i) {
    const AuthorId user = users.Sample(rng);
    const std::uint64_t value = citations.Sample(rng);
    streams[user].push_back(value);
    registry.Add(user, value);
  }
  // With every user on some board (capacity >= population/stripe), TopK
  // must equal sorting the registry's own maintained estimates.
  std::vector<LeaderboardEntry> expected;
  for (const auto& [user, values] : streams) {
    expected.push_back({user, registry.PointHIndex(user)});
  }
  std::sort(expected.begin(), expected.end(),
            [](const LeaderboardEntry& a, const LeaderboardEntry& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.user < b.user;
            });
  const std::vector<LeaderboardEntry> top = registry.TopK(10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].user, expected[i].user) << "rank " << i;
    EXPECT_EQ(top[i].estimate, expected[i].estimate) << "rank " << i;
  }
}

// The leaderboard rule before the board minimum was cached: find the
// user, else append while there is room, else scan for the first
// smallest entry and replace it if this estimate beats it.
void FullScanBoardUpdate(std::vector<LeaderboardEntry>& board,
                         std::size_t capacity, AuthorId user,
                         double estimate) {
  for (LeaderboardEntry& entry : board) {
    if (entry.user == user) {
      if (estimate > entry.estimate) entry.estimate = estimate;
      return;
    }
  }
  if (board.size() < capacity) {
    board.push_back({user, estimate});
    return;
  }
  std::size_t min_index = 0;
  for (std::size_t i = 1; i < board.size(); ++i) {
    if (board[i].estimate < board[min_index].estimate) min_index = i;
  }
  if (estimate > board[min_index].estimate) board[min_index] = {user, estimate};
}

TEST(RegistryTopK, CachedBoardMinimumMatchesTheFullScanRule) {
  ServiceOptions options = SmallOptions();
  options.num_stripes = 2;
  options.leaderboard_capacity = 4;
  auto registry = TieredUserRegistry::Create(options).value();
  using Boards = std::vector<std::vector<LeaderboardEntry>>;
  Boards model(options.num_stripes);

  // A skewed stream of small counts: cold users' exact H-indexes and hot
  // users' grid guesses both tie often.
  Rng rng(29);
  ZipfSampler users(80, 1.1);
  DiscreteParetoSampler citations(1, 1.2, 1u << 10);
  std::vector<std::pair<AuthorId, std::uint64_t>> events;
  for (int i = 0; i < 3000; ++i) {
    events.emplace_back(users.Sample(rng), citations.Sample(rng));
  }

  const auto matches_model = [&](std::size_t step) {
    std::vector<LeaderboardEntry> merged;
    for (const auto& board : model) {
      merged.insert(merged.end(), board.begin(), board.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const LeaderboardEntry& a, const LeaderboardEntry& b) {
                if (a.estimate != b.estimate) return a.estimate > b.estimate;
                return a.user < b.user;
              });
    if (merged.size() > 4) merged.resize(4);
    const std::vector<LeaderboardEntry> top = registry.TopK(4);
    if (top.size() != merged.size()) {
      return ::testing::AssertionFailure() << "TopK size at step " << step;
    }
    for (std::size_t r = 0; r < top.size(); ++r) {
      if (top[r].user != merged[r].user ||
          top[r].estimate != merged[r].estimate) {
        return ::testing::AssertionFailure()
               << "TopK rank " << r << " at step " << step;
      }
    }
    // The board closes each stripe payload, in stored order.
    for (std::size_t i = 0; i < model.size(); ++i) {
      ByteWriter payload;
      registry.SerializeStripe(i, payload);
      ByteWriter board;
      board.U64(model[i].size());
      for (const LeaderboardEntry& entry : model[i]) {
        board.U64(entry.user);
        board.F64(entry.estimate);
      }
      const std::vector<std::uint8_t>& got = payload.buffer();
      const std::vector<std::uint8_t>& want = board.buffer();
      if (got.size() < want.size() ||
          !std::equal(want.begin(), want.end(), got.end() - want.size())) {
        return ::testing::AssertionFailure()
               << "stripe " << i << " board bytes at step " << step;
      }
    }
    return ::testing::AssertionSuccess();
  };
  const auto feed = [&](std::size_t from, std::size_t to) {
    for (std::size_t step = from; step < to; ++step) {
      const auto [user, value] = events[step];
      const double estimate = registry.Add(user, value);
      FullScanBoardUpdate(model[registry.StripeOf(user)],
                          options.leaderboard_capacity, user, estimate);
      ASSERT_TRUE(matches_model(step));
    }
  };

  feed(0, 1000);
  ASSERT_FALSE(HasFatalFailure());
  std::vector<std::vector<std::uint8_t>> saved;
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    ByteWriter payload;
    registry.SerializeStripe(i, payload);
    saved.push_back(payload.Take());
  }
  const Boards saved_model = model;
  feed(1000, 2000);
  ASSERT_FALSE(HasFatalFailure());
  // Restore the mid-stream checkpoint over boards whose minimum has
  // risen since, then replay the same suffix: the restored minimum, not
  // the one the boards had before the restore, must gate the updates.
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    ByteReader reader(saved[i]);
    ASSERT_TRUE(registry.DeserializeStripe(i, reader).ok());
  }
  model = saved_model;
  ASSERT_TRUE(matches_model(1000));
  feed(1000, 3000);
}

// --- registry: serialization -------------------------------------------------

TEST(RegistrySerialize, StripeEncodingIsDeterministicAndRoundTrips) {
  auto registry = TieredUserRegistry::Create(SmallOptions()).value();
  Rng rng(19);
  for (int i = 0; i < 3000; ++i) {
    registry.Add(rng.UniformU64(200), 1 + rng.UniformU64(50));
  }
  for (std::size_t i = 0; i < registry.num_stripes(); ++i) {
    ByteWriter first;
    registry.SerializeStripe(i, first);
    ByteWriter second;
    registry.SerializeStripe(i, second);
    // Same state -> same bytes (users are sorted; map order is hidden).
    ASSERT_EQ(first.buffer(), second.buffer()) << "stripe " << i;

    auto restored = TieredUserRegistry::Create(SmallOptions()).value();
    ByteReader reader(first.buffer());
    ASSERT_TRUE(restored.DeserializeStripe(i, reader).ok()) << "stripe " << i;
    EXPECT_TRUE(reader.AtEnd());
    ByteWriter reencoded;
    restored.SerializeStripe(i, reencoded);
    EXPECT_EQ(first.buffer(), reencoded.buffer()) << "stripe " << i;
  }
}

TEST(RegistrySerialize, RejectsWrongStripeIndexAndCorruption) {
  auto registry = TieredUserRegistry::Create(SmallOptions()).value();
  for (int i = 0; i < 100; ++i) registry.Add(i, 5);
  ByteWriter writer;
  registry.SerializeStripe(0, writer);

  auto other = TieredUserRegistry::Create(SmallOptions()).value();
  ByteReader wrong_stripe(writer.buffer());
  EXPECT_FALSE(other.DeserializeStripe(1, wrong_stripe).ok());

  std::vector<std::uint8_t> truncated = writer.buffer();
  truncated.resize(truncated.size() / 2);
  ByteReader short_reader(truncated);
  EXPECT_FALSE(other.DeserializeStripe(0, short_reader).ok());
}

// --- service: end-to-end -----------------------------------------------------

TEST(ServiceTest, IngestPaperUpdatesEveryAuthor) {
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto service = HImpactService::Create(options).value();
  PaperTuple paper;
  paper.paper = 1;
  paper.citations = 7;
  paper.authors = {10, 20, 30};
  service.IngestPaper(paper);
  for (const AuthorId author : {10, 20, 30}) {
    UserSnapshot snapshot;
    ASSERT_TRUE(service.Lookup(author, &snapshot)) << author;
    EXPECT_EQ(snapshot.events, 1u);
    EXPECT_EQ(snapshot.estimate, 1.0);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.registry.total_events, 3u);
  EXPECT_EQ(stats.hh_papers, 1u);
}

TEST(ServiceTest, HeavyReportSurfacesTheDominantUser) {
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 60; ++i) service.RecordResponseCount(777, 200);
  for (AuthorId user = 1; user <= 30; ++user) {
    service.RecordResponseCount(user, 1);
  }
  const std::vector<HeavyHitterReport> report = service.HeavyReport();
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front().author, 777u);
}

// Two heavy reports agree entry for entry.
void ExpectSameHeavyReport(const std::vector<HeavyHitterReport>& want,
                           const std::vector<HeavyHitterReport>& got,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].author, want[i].author) << context;
    EXPECT_EQ(got[i].h_estimate, want[i].h_estimate) << context;
    EXPECT_EQ(got[i].detections, want[i].detections) << context;
  }
}

TEST(ServiceTest, PaperOnlyHeavyReportIsTheSameAtEveryStripeCount) {
  // The grid is a pure function of the papers it saw, so how the
  // stripes split a `paper` stream (by first author) cannot move the
  // merged report. Many mid-sized authors keep the bucket majority tests
  // close, so the sample contents decide the report.
  Rng rng(41);
  std::vector<PaperTuple> papers;
  for (std::uint64_t p = 0; p < 4000; ++p) {
    PaperTuple paper;
    paper.paper = p;
    const std::uint64_t num_authors = 1 + rng.UniformU64(3);
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(1 + rng.UniformU64(60));
    }
    paper.citations = 1 + rng.UniformU64(80);
    papers.push_back(paper);
  }
  for (int d = 0; d < 200; ++d) {
    papers.push_back(papers[static_cast<std::size_t>(rng.UniformU64(4000))]);
  }

  std::vector<HeavyHitterReport> want;
  for (const std::size_t stripes : {1, 2, 8}) {
    ServiceOptions options = SmallOptions();
    options.enable_heavy_hitters = true;
    options.num_stripes = stripes;
    auto service = HImpactService::Create(options).value();
    for (const PaperTuple& paper : papers) service.IngestPaper(paper);
    const std::vector<HeavyHitterReport> report = service.HeavyReport();
    if (stripes == 1) {
      ASSERT_FALSE(report.empty());
      want = report;
    }
    ExpectSameHeavyReport(want, report,
                          std::to_string(stripes) + " stripes");
  }
}

// Shared driver: feed `count` deterministic events starting at `offset`.
void Feed(HImpactService& service, int offset, int count) {
  Rng rng(23 + offset);
  ZipfSampler users(2000, 1.2);
  DiscreteParetoSampler citations(1, 1.6, 1u << 12);
  for (int i = 0; i < count; ++i) {
    service.RecordResponseCount(users.Sample(rng), citations.Sample(rng));
  }
}

// Every queryable answer, concatenated. Byte-identical answers across a
// checkpoint/restore mean this string is equal character for character.
std::string AnswerTranscript(const HImpactService& service) {
  std::string transcript;
  for (AuthorId user = 1; user <= 2000; ++user) {
    UserSnapshot snapshot;
    if (!service.Lookup(user, &snapshot)) continue;
    char line[128];
    std::snprintf(line, sizeof(line), "%llu %.17g %d %llu\n",
                  static_cast<unsigned long long>(user), snapshot.estimate,
                  static_cast<int>(snapshot.tier),
                  static_cast<unsigned long long>(snapshot.events));
    transcript += line;
  }
  transcript += "TOP";
  for (const LeaderboardEntry& entry : service.TopK(20)) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), " %llu:%.17g",
                  static_cast<unsigned long long>(entry.user),
                  entry.estimate);
    transcript += cell;
  }
  transcript += '\n';
  return transcript;
}

TEST(ServiceCheckpoint, KillAndResumeAnswersByteIdentically) {
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 256 * 1024;  // force real demotions
  const std::string path = TempPath("resume");

  auto original = HImpactService::Create(options).value();
  Feed(original, 0, 30000);
  ASSERT_TRUE(original.CheckpointTo(path).ok());

  auto resumed = HImpactService::Create(options).value();
  ASSERT_TRUE(resumed.RestoreFrom(path).ok());
  EXPECT_EQ(AnswerTranscript(original), AnswerTranscript(resumed));
  EXPECT_EQ(original.Stats().registry.total_events,
            resumed.Stats().registry.total_events);

  // The "kill" half: both services consume the same suffix; the resumed
  // one must stay in lockstep (promotions, demotions, boards and all).
  Feed(original, 1, 10000);
  Feed(resumed, 1, 10000);
  EXPECT_EQ(AnswerTranscript(original), AnswerTranscript(resumed));

  // The heavy-hitters grid resumed too (same merged report).
  const auto original_heavy = original.HeavyReport();
  const auto resumed_heavy = resumed.HeavyReport();
  ASSERT_EQ(original_heavy.size(), resumed_heavy.size());
  for (std::size_t i = 0; i < original_heavy.size(); ++i) {
    EXPECT_EQ(original_heavy[i].author, resumed_heavy[i].author);
    EXPECT_EQ(original_heavy[i].h_estimate, resumed_heavy[i].h_estimate);
  }

  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceCheckpoint, ManifestRoundTripsOptions) {
  ServiceOptions options = SmallOptions();
  options.promote_threshold = 21;
  options.seed = 99;
  const std::string path = TempPath("manifest");
  auto service = HImpactService::Create(options).value();
  Feed(service, 0, 500);
  ASSERT_TRUE(service.CheckpointTo(path).ok());

  const ServiceManifest manifest =
      HImpactService::ReadManifest(path).value();
  EXPECT_EQ(manifest.options.promote_threshold, 21u);
  EXPECT_EQ(manifest.options.seed, 99u);
  EXPECT_EQ(manifest.options.num_stripes, options.num_stripes);
  EXPECT_EQ(manifest.total_events, 500u);
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceCheckpoint, RestoreRejectsOptionMismatch) {
  const std::string path = TempPath("mismatch");
  ServiceOptions options = SmallOptions();
  auto service = HImpactService::Create(options).value();
  Feed(service, 0, 200);
  ASSERT_TRUE(service.CheckpointTo(path).ok());

  ServiceOptions different = options;
  different.promote_threshold += 1;
  auto other = HImpactService::Create(different).value();
  bool refused = false;
  const Status status = other.RestoreFrom(path, &refused);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(refused) << "a readable checkpoint is not a refused format";
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceCheckpoint, ReservoirFormatGridIsRefusedAndKeepsState) {
  // s uniform survivors of a reservoir cannot stand in for a bottom-s
  // sample of the stream, so a stripe in that format is refused.
  const std::string path = TempPath("reservoir_grid");
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto writer_service = HImpactService::Create(options).value();
  Feed(writer_service, 0, 2000);
  ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
  ASSERT_TRUE(test::ReencodeWithReservoirGridMagic(
      HImpactService::StripePath(path, 1)));

  auto target = HImpactService::Create(options).value();
  Feed(target, 5, 300);
  const std::string before = AnswerTranscript(target);
  const std::vector<HeavyHitterReport> heavy_before = target.HeavyReport();
  bool refused = false;
  const Status status = target.RestoreFrom(path, &refused);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(refused);
  EXPECT_NE(status.message().find("reservoir format (HIMPHHS1)"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(HImpactService::StripePath(path, 1)),
            std::string::npos)
      << status.message();
  EXPECT_EQ(AnswerTranscript(target), before);
  ExpectSameHeavyReport(heavy_before, target.HeavyReport(), "after refusal");
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceTest, AddIsTheOneAuthorPaperOfItsStripeSequence) {
  // An add reaches the grid through the paper path: a twin that ingests
  // each add as the one-author paper `ResponseCountPaper` derives from
  // the add's stripe sequence ends in the same stripe payloads.
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  options.num_stripes = 3;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 128 * 1024;  // demotions too
  auto service = HImpactService::Create(options).value();
  auto twin = HImpactService::Create(options).value();
  const TieredUserRegistry& registry = twin.registry();
  Rng rng(57);
  ZipfSampler users(400, 1.1);
  DiscreteParetoSampler citations(1, 1.6, 1u << 10);
  for (int i = 0; i < 6000; ++i) {
    const AuthorId user = users.Sample(rng);
    const std::uint64_t value = citations.Sample(rng);
    if (i % 5 == 0) {
      PaperTuple paper;
      paper.paper = (std::uint64_t{1} << 40) + static_cast<std::uint64_t>(i);
      paper.citations = value;
      paper.authors = {user, user + 1000};
      service.IngestPaper(paper);
      twin.IngestPaper(paper);
      continue;
    }
    service.RecordResponseCount(user, value);
    const std::size_t stripe = registry.StripeOf(user);
    const std::uint64_t seq = registry.StripeEvents(stripe) + 1;
    twin.IngestPaper(twin.ResponseCountPaper(user, value, seq));
  }
  EXPECT_EQ(service.Stats().hh_papers, 6000u);
  EXPECT_GT(service.Stats().registry.demotions, 0u);

  const std::string path = TempPath("add_paper");
  const std::string twin_path = TempPath("add_paper_twin");
  ASSERT_TRUE(service.CheckpointTo(path).ok());
  ASSERT_TRUE(twin.CheckpointTo(twin_path).ok());
  EXPECT_EQ(ReadBytes(path), ReadBytes(twin_path));
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    EXPECT_EQ(ReadBytes(HImpactService::StripePath(path, i)),
              ReadBytes(HImpactService::StripePath(twin_path, i)))
        << "stripe " << i;
  }
  RemoveServiceCheckpoint(path, options.num_stripes);
  RemoveServiceCheckpoint(twin_path, options.num_stripes);
}

// The paper ids in every Alg. 7 sample of the grid in the stripe file at
// `stripe_path`, one list per sample. Walks `HeavyHitters::SerializeTo`:
// eleven words of options and counters, then each cell's paper count,
// level counts and samples of (paper, author count, authors) entries.
std::vector<std::vector<PaperId>> GridSamplePaperIds(
    const std::string& stripe_path) {
  const std::vector<std::uint8_t> payload =
      ReadCheckpointFile(stripe_path, CheckpointTag::kServiceStripe).value();
  const std::uint8_t grid_magic[8] = {'2', 'S', 'H', 'H', 'P', 'M', 'I', 'H'};
  const auto at = std::search(payload.begin(), payload.end(), grid_magic,
                              grid_magic + sizeof(grid_magic));
  std::vector<std::vector<PaperId>> samples;
  if (at == payload.end()) {
    ADD_FAILURE() << stripe_path << " holds no grid";
    return samples;
  }
  ByteReader reader(std::span<const std::uint8_t>(
      payload.data() + (at - payload.begin()),
      static_cast<std::size_t>(payload.end() - at)));
  std::uint64_t word = 0;
  for (int w = 0; w < 10; ++w) EXPECT_TRUE(reader.U64(&word));
  std::uint64_t cells = 0;
  EXPECT_TRUE(reader.U64(&cells));
  for (std::uint64_t c = 0; c < cells; ++c) {
    std::uint64_t levels = 0;
    EXPECT_TRUE(reader.U64(&word));  // papers
    EXPECT_TRUE(reader.U64(&levels));
    for (std::uint64_t l = 0; l < levels; ++l) EXPECT_TRUE(reader.U64(&word));
    std::uint64_t num_samples = 0;
    EXPECT_TRUE(reader.U64(&num_samples));
    for (std::uint64_t s = 0; s < num_samples; ++s) {
      std::uint64_t size = 0;
      EXPECT_TRUE(reader.U64(&size));
      std::vector<PaperId>& ids = samples.emplace_back();
      for (std::uint64_t e = 0; e < size; ++e) {
        std::uint64_t authors = 0;
        EXPECT_TRUE(reader.U64(&ids.emplace_back()));
        EXPECT_TRUE(reader.U64(&authors));
        for (std::uint64_t a = 0; a < authors; ++a) {
          EXPECT_TRUE(reader.U64(&word));
        }
      }
    }
  }
  EXPECT_TRUE(reader.AtEnd());
  return samples;
}

TEST(ServiceCheckpoint, EarlierStripeLayoutsStillRestore) {
  // HIMPSRG2 stripe files carry an archive sketch after the stripe
  // counters and, after the grid, the counter earlier builds minted add
  // ids from (`counter * num_stripes + stripe`); HIMPSRG1 files also
  // lack the segment-generation bound. Both restore to the same answers,
  // and adds after the restore take ids no restored sample holds.
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  options.num_stripes = 3;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 128 * 1024;  // frozen demotions
  auto original = HImpactService::Create(options).value();
  const TieredUserRegistry& registry = original.registry();
  // An earlier build's add: the one-author paper under its stripe's next
  // counter value.
  std::vector<std::uint64_t> counter(options.num_stripes);
  Rng rng(61);
  ZipfSampler users(2000, 1.2);
  DiscreteParetoSampler citations(1, 1.6, 1u << 12);
  for (int i = 0; i < 8000; ++i) {
    const AuthorId user = users.Sample(rng);
    const std::size_t stripe = registry.StripeOf(user);
    PaperTuple paper;
    paper.paper = counter[stripe]++ * options.num_stripes + stripe;
    paper.citations = citations.Sample(rng);
    paper.authors.PushBack(user);
    original.IngestPaper(paper);
  }
  ASSERT_GT(original.Stats().registry.frozen_users, 0u);
  const std::string current = TempPath("layout_current");
  ASSERT_TRUE(original.CheckpointTo(current).ok());

  auto archive =
      ExponentialHistogramEstimator::Create(options.eps, options.max_h).value();
  for (std::uint64_t v = 1; v <= 300; ++v) archive.Add(v % 97);
  ByteWriter archive_writer;
  archive.SerializeTo(archive_writer);
  const std::vector<std::uint8_t> archive_bytes = archive_writer.Take();

  for (const char version : {'2', '1'}) {
    SCOPED_TRACE(std::string("HIMPSRG") + version);
    const std::string path = TempPath("layout_legacy");
    ASSERT_TRUE(original.CheckpointTo(path).ok());
    for (std::size_t i = 0; i < options.num_stripes; ++i) {
      ASSERT_TRUE(test::ReencodeStripeFileAsLegacy(
          HImpactService::StripePath(path, i), version, archive_bytes,
          counter[i]));
    }
    auto restored = HImpactService::Create(options).value();
    ASSERT_TRUE(restored.RestoreFrom(path).ok());
    EXPECT_EQ(AnswerTranscript(restored), AnswerTranscript(original));
    ExpectSameHeavyReport(original.HeavyReport(), restored.HeavyReport(),
                          "restored");
    // A save writes the current layout, byte for byte the original's.
    const std::string resaved = TempPath("layout_resaved");
    ASSERT_TRUE(restored.CheckpointTo(resaved).ok());
    for (std::size_t i = 0; i < options.num_stripes; ++i) {
      EXPECT_EQ(ReadBytes(HImpactService::StripePath(resaved, i)),
                ReadBytes(HImpactService::StripePath(current, i)))
          << "stripe " << i;
    }

    Feed(restored, 7, 8000);
    ASSERT_TRUE(restored.CheckpointTo(resaved).ok());
    std::size_t mixed = 0;
    for (std::size_t i = 0; i < options.num_stripes; ++i) {
      for (std::vector<PaperId> ids :
           GridSamplePaperIds(HImpactService::StripePath(resaved, i))) {
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
            << "stripe " << i << " samples a paper id twice";
        // Restored ids lie below the counter, post-restore ids above it.
        const std::uint64_t bound = counter[i] * options.num_stripes;
        if (!ids.empty() && ids.front() < bound && ids.back() >= bound) {
          ++mixed;
        }
      }
    }
    EXPECT_GT(mixed, 0u) << "no sample mixes restored and new ids";
    RemoveServiceCheckpoint(path, options.num_stripes);
    RemoveServiceCheckpoint(resaved, options.num_stripes);
  }
  RemoveServiceCheckpoint(current, options.num_stripes);
}

TEST(ServiceCheckpoint, MalformedGridIsRejectedButNotRefused) {
  // Only the reservoir format is refused; a grid that does not decode
  // is plain corruption, which a caller handles by starting fresh.
  const std::string path = TempPath("malformed_grid");
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto writer_service = HImpactService::Create(options).value();
  Feed(writer_service, 0, 2000);
  ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
  ASSERT_TRUE(
      test::RewriteGridMagicVersion(HImpactService::StripePath(path, 1), '7'));

  auto target = HImpactService::Create(options).value();
  Feed(target, 5, 300);
  const std::string before = AnswerTranscript(target);
  const std::vector<HeavyHitterReport> heavy_before = target.HeavyReport();
  bool refused = false;
  const Status status = target.RestoreFrom(path, &refused);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
  EXPECT_FALSE(refused) << status.message();
  EXPECT_EQ(AnswerTranscript(target), before);
  ExpectSameHeavyReport(heavy_before, target.HeavyReport(), "after rejection");
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceCheckpoint, RestoreRejectsCorruptionAndKeepsState) {
  const std::string path = TempPath("corrupt");
  ServiceOptions options = SmallOptions();
  auto writer_service = HImpactService::Create(options).value();
  Feed(writer_service, 0, 2000);
  ASSERT_TRUE(writer_service.CheckpointTo(path).ok());

  // Flip one payload byte of a stripe file; the envelope CRC must
  // reject it and RestoreFrom must leave the target service untouched.
  const std::string stripe_path = HImpactService::StripePath(path, 2);
  std::vector<std::uint8_t> bytes = ReadFileBytes(stripe_path).value();
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(stripe_path, bytes).ok());

  auto target = HImpactService::Create(options).value();
  Feed(target, 5, 100);
  const std::string before = AnswerTranscript(target);
  EXPECT_FALSE(target.RestoreFrom(path).ok());
  EXPECT_EQ(AnswerTranscript(target), before);
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceCheckpoint, RestoreRejectsMissingStripeFile) {
  const std::string path = TempPath("missing");
  ServiceOptions options = SmallOptions();
  auto service = HImpactService::Create(options).value();
  Feed(service, 0, 1000);
  ASSERT_TRUE(service.CheckpointTo(path).ok());
  std::remove(HImpactService::StripePath(path, 1).c_str());

  auto target = HImpactService::Create(options).value();
  EXPECT_FALSE(target.RestoreFrom(path).ok());
  RemoveServiceCheckpoint(path, options.num_stripes);
}

}  // namespace
