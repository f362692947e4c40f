// Tests for the multi-tenant query service (src/service/): tier
// transitions of the registry (cold exactness, promotion guarantee,
// demotion lower bounds under a memory budget), leaderboard-vs-exact
// agreement, deterministic stripe serialization, and the service-level
// checkpoint — including the kill-and-resume property the service
// promises: a restored service answers every query byte-identically to
// the one that wrote the checkpoint, before and after both consume the
// same suffix of events.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/exponential_histogram.h"
#include "fault_injection.h"
#include "heavy/heavy_hitters.h"
#include "heavy/one_heavy_hitter.h"
#include "io/checkpoint.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/registry.h"
#include "service/service.h"
#include "service/user_index.h"
#include "service/wal_apply.h"

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
  std::remove(HImpactService::GridPath(path).c_str());
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
  // An eps whose sketch grid would not fit (at 1e-300 the grid's level
  // loop never ends): refused up front, before any promotion builds one.
  for (const double eps : {1e-9, 1e-300}) {
    options = ServiceOptions();
    options.eps = eps;
    EXPECT_EQ(TieredUserRegistry::Create(options).status().code(),
              StatusCode::kInvalidArgument);
  }
  // The same for the heavy-hitters detectors' grid, and through the
  // service, which would otherwise build it.
  options = ServiceOptions();
  options.hh_max_papers = 1u << 20;
  options.hh_eps = 1e-5;
  EXPECT_EQ(TieredUserRegistry::Create(options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HImpactService::Create(options).status().code(),
            StatusCode::kInvalidArgument);
  options.enable_heavy_hitters = false;
  EXPECT_TRUE(TieredUserRegistry::Create(options).ok());
  EXPECT_TRUE(TieredUserRegistry::Create(ServiceOptions()).ok());
}

// --- registry: the per-stripe user index -------------------------------------

// The index against a std::unordered_map model over a seeded program of
// inserts and lookups: ids 0 and UINT64_MAX, a clump of ids whose homes
// coincide at every table size up to 256 slots (at the last slot, so
// their probe chains wrap around), and enough distinct ids to grow the
// table many times. Entries must not move when it grows, and ForEach
// must visit each user exactly once.
TEST(UserIndexTest, MatchesAnUnorderedMapModel) {
  std::vector<AuthorId> clump;
  for (AuthorId id = 1; clump.size() < 40; ++id) {
    if ((SplitMix64(id) >> 56) == 0xFF) clump.push_back(id);
  }
  Rng rng(41);
  const auto pick = [&]() -> AuthorId {
    switch (rng.UniformU64(5)) {
      case 0:
        return rng.Bernoulli(0.5) ? 0 : UINT64_MAX;
      case 1:
        return clump[rng.UniformU64(clump.size())];
      case 2:
        return rng.UniformU64(64);  // mostly repeats
      default:
        return rng.NextU64();  // mostly fresh
    }
  };
  for (const bool reserved : {false, true}) {
    UserIndex<std::uint64_t> index;
    if (reserved) index.Reserve(3000);
    std::unordered_map<AuthorId, std::uint64_t> model;
    std::unordered_map<AuthorId, const std::uint64_t*> address;
    // The clump first, into the smallest table.
    for (const AuthorId id : clump) {
      auto [value, inserted] = index.FindOrInsert(id, SplitMix64(id));
      ASSERT_TRUE(inserted);
      *value = id;
      model[id] = id;
      address[id] = value;
    }
    for (int step = 0; step < 20000; ++step) {
      const AuthorId id = pick();
      if (rng.Bernoulli(0.3)) {
        const std::uint64_t* found = index.Find(id);
        const auto it = model.find(id);
        ASSERT_EQ(found != nullptr, it != model.end()) << "id " << id;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
          EXPECT_EQ(found, address[id]) << "entry moved";
        }
        continue;
      }
      auto [value, inserted] = index.FindOrInsert(id, SplitMix64(id));
      ASSERT_EQ(inserted, model.count(id) == 0) << "id " << id;
      if (inserted) {
        EXPECT_EQ(*value, 0u);  // value-initialized
        address[id] = value;
      } else {
        EXPECT_EQ(value, address[id]) << "entry moved";
      }
      *value += step + 1;
      model[id] += step + 1;
      ASSERT_EQ(index.size(), model.size());
    }
    ASSERT_GT(model.size(), 4000u);  // grew well past the first tables
    std::set<AuthorId> visited;
    index.ForEach([&](AuthorId id, const std::uint64_t& value) {
      EXPECT_TRUE(visited.insert(id).second) << "visited twice: " << id;
      ASSERT_EQ(model.count(id), 1u) << "not in the model: " << id;
      EXPECT_EQ(value, model[id]);
      EXPECT_EQ(&value, address[id]);
    });
    EXPECT_EQ(visited.size(), model.size());
    EXPECT_EQ(index.Find(0) != nullptr, model.count(0) == 1);
    EXPECT_EQ(index.Find(UINT64_MAX) != nullptr, model.count(UINT64_MAX) == 1);
  }
}

// --- registry: one run under one lock per stripe -----------------------------

// `ApplyRun` is the per-event `Add`s in log order: the same stripe
// sequence and estimate per event and the same stripe payload bytes.
// Runs hold 1 to 40 papers of up to 8 authors over 3 stripes (so
// co-authors share stripes and the prefetch window wraps), some repeat
// an author, some apply a subset of their authors as replay does, and
// the budget is small enough that a run's own events demote each other
// mid-run; once freezing, once paging.
TEST(RegistryApplyRun, EqualsPerEventAddsInLogOrder) {
  for (const bool paged : {false, true}) {
    ServiceOptions options = SmallOptions();
    options.num_stripes = 3;
    options.promote_threshold = 6;
    options.memory_budget_bytes = 24 * 1024;
    const std::string root = TempPath(paged ? "addpaper_paged" : "addpaper");
    std::filesystem::remove_all(root);
    ServiceOptions paper_options = options;
    ServiceOptions add_options = options;
    if (paged) {
      paper_options.segment_dir = root + "/paper";
      add_options.segment_dir = root + "/add";
    }
    auto by_paper = TieredUserRegistry::Create(paper_options).value();
    auto by_add = TieredUserRegistry::Create(add_options).value();
    Rng rng(paged ? 53 : 52);
    ZipfSampler users(600, 1.05);
    for (int run = 0; run < 400; ++run) {
      std::vector<UserEvent> events;
      const int papers = 1 + static_cast<int>(rng.UniformU64(40));
      for (int p = 0; p < papers; ++p) {
        const std::uint64_t citations = 1 + rng.UniformU64(80);
        const int n =
            1 + static_cast<int>(rng.UniformU64(kMaxAuthorsPerPaper));
        const bool repeat = n > 1 && rng.Bernoulli(0.05);
        const std::uint32_t bits =
            rng.Bernoulli(0.2)
                ? static_cast<std::uint32_t>(rng.UniformU64(1u << n))
                : ~std::uint32_t{0};
        AuthorId first = 0;
        for (int a = 0; a < n; ++a) {
          const AuthorId author =
              repeat && a == n - 1 ? first : users.Sample(rng);
          if (a == 0) first = author;
          if (((bits >> a) & 1u) != 0) events.push_back({author, citations});
        }
      }
      std::vector<std::uint64_t> got_seqs(events.size());
      std::vector<double> got_estimates(events.size());
      by_paper.ApplyRun(events, got_seqs.data(), got_estimates.data());
      for (std::size_t e = 0; e < events.size(); ++e) {
        std::uint64_t want_seq = 0;
        const double want_estimate =
            by_add.Add(events[e].user, events[e].value, &want_seq);
        ASSERT_EQ(got_seqs[e], want_seq) << "run " << run << " event " << e;
        ASSERT_EQ(got_estimates[e], want_estimate)
            << "run " << run << " event " << e;
      }
    }
    const RegistryStats stats = by_paper.Stats();
    EXPECT_GT(stats.demotions, 100u);
    EXPECT_GT(paged ? stats.segment_users : stats.frozen_users, 0u);
    for (std::size_t s = 0; s < options.num_stripes; ++s) {
      ByteWriter paper_bytes;
      by_paper.SerializeStripe(s, paper_bytes);
      ByteWriter add_bytes;
      by_add.SerializeStripe(s, add_bytes);
      EXPECT_EQ(paper_bytes.buffer(), add_bytes.buffer()) << "stripe " << s;
    }
    std::filesystem::remove_all(root);
  }
}

// A hot user whose stored sketch eps is crafted to 1e-300: the stripe
// payload is rejected, not decoded into a grid that never ends.
TEST(RegistrySerialize, RejectsAHotUserWithATinyStoredEps) {
  ServiceOptions options = SmallOptions();
  options.num_stripes = 1;
  auto registry = TieredUserRegistry::Create(options).value();
  for (int i = 0; i < 40; ++i) registry.Add(7, 30);
  ByteWriter writer;
  registry.SerializeStripe(0, writer);
  std::vector<std::uint8_t> bytes = writer.buffer();
  ByteWriter magic;
  magic.U64(0x48494d5045585031ULL);  // HIMPEXP1, the sketch's magic
  const auto at = std::search(bytes.begin(), bytes.end(),
                              magic.buffer().begin(), magic.buffer().end());
  ASSERT_NE(at, bytes.end());
  ByteWriter eps;
  eps.F64(1e-300);
  std::copy(eps.buffer().begin(), eps.buffer().end(), at + 8);
  auto restored = TieredUserRegistry::Create(options).value();
  ByteReader reader(bytes);
  EXPECT_EQ(restored.DeserializeStripe(0, reader).code(),
            StatusCode::kInvalidArgument);
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

TEST(ServiceTest, HeavyReportIsTheOfflineGridsReport) {
  // Thm 18 on the served stack: at any stripe count, `HeavyReport` is
  // the report of one offline Alg. 8 grid fed the same tuples (an add's
  // is `ResponseCountPaper`), in any order. Many mid-sized authors keep
  // the bucket majority tests close, so the sample contents decide the
  // report; repeated papers take no second slot.
  for (const bool with_adds : {false, true}) {
    for (const std::size_t stripes : {1, 2, 8}) {
      const std::string context = std::to_string(stripes) + " stripes" +
                                  (with_adds ? ", adds and papers" : "");
      ServiceOptions options = SmallOptions();
      options.enable_heavy_hitters = true;
      options.num_stripes = stripes;
      auto service = HImpactService::Create(options).value();
      const TieredUserRegistry& registry = service.registry();
      Rng rng(41);
      std::vector<PaperTuple> papers;
      std::vector<PaperTuple> tuples;
      for (std::uint64_t p = 0; p < 4200; ++p) {
        const std::uint64_t citations = 1 + rng.UniformU64(80);
        if (with_adds && p % 3 == 0) {
          const AuthorId user = 1 + rng.UniformU64(60);
          service.RecordResponseCount(user, citations);
          tuples.push_back(service.ResponseCountPaper(
              user, citations,
              registry.StripeEvents(registry.StripeOf(user))));
          continue;
        }
        PaperTuple paper;
        if (p < 4000) {
          paper.paper = p;
          const std::uint64_t num_authors = 1 + rng.UniformU64(3);
          for (std::uint64_t a = 0; a < num_authors; ++a) {
            paper.authors.PushBack(1 + rng.UniformU64(60));
          }
          paper.citations = citations;
        } else {
          paper = papers[rng.UniformU64(papers.size())];  // a retry
        }
        service.IngestPaper(paper);
        papers.push_back(paper);
        tuples.push_back(paper);
      }

      for (std::size_t i = tuples.size() - 1; i > 0; --i) {
        std::swap(tuples[i], tuples[rng.UniformU64(i + 1)]);
      }
      auto offline =
          HeavyHitters::Create(HhOptions(options), options.seed).value();
      for (const PaperTuple& paper : tuples) offline.AddPaper(paper);
      const std::vector<HeavyHitterReport> want = offline.Report();
      ASSERT_FALSE(want.empty()) << context;
      ExpectSameHeavyReport(want, service.HeavyReport(), context);
      EXPECT_EQ(service.Stats().hh_papers, offline.num_papers()) << context;
    }
  }
}

TEST(ServiceTest, GridBytesStayWithinThePapersSpace) {
  // Thm 17/18's space for the grid: x rows x l = 2/eps^2 buckets, each
  // one Alg. 7 detector with L = |{(1+eps)^i <= n}| level counters and
  // L samples of s entries. In bytes an entry is one `SampledPaper`.
  // docs/SERVICE.md names the constant; this stream fills nearly every
  // sample of a default grid, which then measures 1.02 of this space.
  // The grid is the service's at its defaults, fed offline:
  // `HeavyReportIsTheOfflineGridsReport` shows the served grid is one.
  constexpr double kConstant = 1.25;
  const ServiceOptions options;
  ASSERT_TRUE(options.enable_heavy_hitters);
  auto grid = HeavyHitters::Create(HhOptions(options), options.seed).value();
  auto detector_options = OneHeavyHitter::Options{};
  detector_options.eps = options.hh_eps;
  detector_options.delta = options.hh_delta;
  detector_options.max_papers = options.hh_max_papers;
  const auto detector = OneHeavyHitter::Create(detector_options).value();
  const double levels =
      std::floor(std::log(static_cast<double>(options.hh_max_papers)) /
                 std::log1p(options.hh_eps)) +
      1;
  const double space =
      static_cast<double>(grid.num_rows() * grid.num_buckets()) * levels *
      (sizeof(std::uint64_t) +
       static_cast<double>(detector.sample_size()) *
           sizeof(OneHeavyHitter::SampledPaper));

  // Log-uniform citations up to n fill nearly every level's sample; two
  // to three authors from a wide pool spread the papers over every
  // bucket.
  Rng rng(83);
  const double log_n = std::log2(static_cast<double>(options.hh_max_papers));
  for (std::uint64_t p = 0; p < 60000; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations =
        static_cast<std::uint64_t>(std::exp2(rng.UniformDouble() * log_n));
    const std::uint64_t num_authors = 2 + rng.UniformU64(2);
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(rng.UniformU64(100000));
    }
    grid.AddPaper(paper);
  }
  const double bytes = static_cast<double>(grid.EstimateSpace().bytes);
  EXPECT_LE(bytes, kConstant * space)
      << "grid " << bytes << " B, paper's space " << space << " B";
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

  // The heavy-hitters grid resumed too (same report).
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
  // sample of the stream, so a grid in that format is refused.
  const std::string path = TempPath("reservoir_grid");
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto writer_service = HImpactService::Create(options).value();
  Feed(writer_service, 0, 2000);
  ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
  ASSERT_TRUE(test::ReencodeWithReservoirGridMagic(
      HImpactService::GridPath(path), CheckpointTag::kServiceGrid));

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
  EXPECT_NE(status.message().find(HImpactService::GridPath(path)),
            std::string::npos)
      << status.message();
  EXPECT_EQ(AnswerTranscript(target), before);
  ExpectSameHeavyReport(heavy_before, target.HeavyReport(), "after refusal");
  RemoveServiceCheckpoint(path, options.num_stripes);
}

TEST(ServiceTest, AddIsTheOneAuthorPaperOfItsStripeSequence) {
  // An add reaches the grid through the paper path: a twin that ingests
  // each add as the one-author paper `ResponseCountPaper` derives from
  // the add's stripe sequence ends in the same checkpoint files.
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
  EXPECT_EQ(ReadBytes(HImpactService::GridPath(path)),
            ReadBytes(HImpactService::GridPath(twin_path)));
  RemoveServiceCheckpoint(path, options.num_stripes);
  RemoveServiceCheckpoint(twin_path, options.num_stripes);
}

// The paper ids in every Alg. 7 sample of the grid file at `grid_path`,
// one list per sample. Skips the `stripes` stripe counts, then walks
// `HeavyHitters::SerializeTo`: the magic, nine words of options and
// counters, then each cell's paper count, level counts and samples of
// (paper, author count, authors) entries.
std::vector<std::vector<PaperId>> GridSamplePaperIds(
    const std::string& grid_path, std::size_t stripes) {
  const std::vector<std::uint8_t> payload =
      ReadCheckpointFile(grid_path, CheckpointTag::kServiceGrid).value();
  ByteReader reader(payload);
  std::vector<std::vector<PaperId>> samples;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < stripes; ++i) EXPECT_TRUE(reader.U64(&word));
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

// Every file a save to `path` writes, in a fixed order.
std::vector<std::vector<std::uint8_t>> SavedFiles(
    const HImpactService& service, const std::string& path) {
  EXPECT_TRUE(service.CheckpointTo(path).ok());
  std::vector<std::vector<std::uint8_t>> files = {ReadBytes(path)};
  for (std::size_t i = 0; i < service.options().num_stripes; ++i) {
    files.push_back(ReadBytes(HImpactService::StripePath(path, i)));
  }
  files.push_back(ReadBytes(HImpactService::GridPath(path)));
  return files;
}

TEST(ServiceCheckpoint, EarlierStripeLayoutsStillRestore) {
  // Earlier layouts keep one grid per stripe, fed the papers whose first
  // author is on that stripe, after a heavy-hitters flag at the end of
  // the stripe file. HIMPSRG2 files also carry an archive sketch after
  // the stripe counters and, after the grid, the counter those builds
  // minted add ids from (`counter * num_stripes + stripe`); HIMPSRG1
  // files also lack the segment-generation bound. A restore merges the
  // stripes' grids into the one grid, exactly, so every layout restores
  // to the answers and heavy report of before the upgrade, and a WAL
  // replayed on top ends where the uncrashed twin does.
  for (const std::size_t stripes : {3, 8}) {
    SCOPED_TRACE(std::to_string(stripes) + " stripes");
    ServiceOptions options = SmallOptions();
    options.enable_heavy_hitters = true;
    options.num_stripes = stripes;
    options.promote_threshold = 8;
    options.memory_budget_bytes = 128 * 1024;  // frozen demotions
    auto original = HImpactService::Create(options).value();
    const TieredUserRegistry& registry = original.registry();
    // An earlier build's add: the one-author paper under its stripe's
    // next counter value, fed to that stripe's grid.
    std::vector<std::uint64_t> counter(stripes);
    std::vector<HeavyHitters> stripe_grids(
        stripes,
        HeavyHitters::Create(HhOptions(options), options.seed).value());
    Rng rng(61);
    ZipfSampler users(2000, 1.2);
    DiscreteParetoSampler citations(1, 1.6, 1u << 12);
    for (int i = 0; i < 8000; ++i) {
      const AuthorId user = users.Sample(rng);
      const std::size_t stripe = registry.StripeOf(user);
      PaperTuple paper;
      paper.paper = counter[stripe]++ * stripes + stripe;
      paper.citations = citations.Sample(rng);
      paper.authors.PushBack(user);
      original.IngestPaper(paper);
      stripe_grids[stripe].AddPaper(paper);
    }
    ASSERT_GT(original.Stats().registry.frozen_users, 0u);
    const std::string base = TempPath("layout_base");
    const std::vector<std::vector<std::uint8_t>> base_files =
        SavedFiles(original, base);
    const std::string answers_before = AnswerTranscript(original);
    const std::vector<HeavyHitterReport> heavy_before =
        original.HeavyReport();

    // The uncrashed twin goes on, logging adds and papers to a WAL.
    const std::string wal_dir = TempPath("layout_wal");
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    {
      WalOptions wal_options;
      wal_options.dir = wal_dir;
      wal_options.fsync = WalFsync::kNever;
      auto wal = WalWriter::Open(wal_options).value();
      for (int i = 0; i < 3000; ++i) {
        const AuthorId user = users.Sample(rng);
        const std::uint64_t value = citations.Sample(rng);
        if (i % 4 == 0) {
          PaperTuple paper;
          paper.paper = (std::uint64_t{1} << 40) + static_cast<unsigned>(i);
          paper.citations = value;
          paper.authors = {user, users.Sample(rng)};
          original.IngestPaper(paper);
          ASSERT_TRUE(AppendWalPaper(wal.get(), original, paper).ok());
        } else {
          original.RecordResponseCount(user, value);
          ASSERT_TRUE(AppendWalAdd(wal.get(), original, user, value).ok());
        }
      }
    }
    const std::string current = TempPath("layout_current");
    const std::vector<std::vector<std::uint8_t>> current_files =
        SavedFiles(original, current);

    auto archive = ExponentialHistogramEstimator::Create(options.eps,
                                                         options.max_h)
                       .value();
    for (std::uint64_t v = 1; v <= 300; ++v) archive.Add(v % 97);
    ByteWriter archive_writer;
    archive.SerializeTo(archive_writer);
    const std::vector<std::uint8_t> archive_bytes = archive_writer.Take();

    for (const char version : {'3', '2', '1'}) {
      SCOPED_TRACE(std::string("HIMPSRG") + version);
      const std::string path = TempPath("layout_legacy");
      RemoveServiceCheckpoint(path, stripes);
      std::filesystem::copy_file(base, path);
      for (std::size_t i = 0; i < stripes; ++i) {
        std::filesystem::copy_file(HImpactService::StripePath(base, i),
                                   HImpactService::StripePath(path, i));
        ByteWriter grid;
        stripe_grids[i].SerializeTo(grid);
        ASSERT_TRUE(test::ReencodeStripeFileAsLegacy(
            HImpactService::StripePath(path, i), version, archive_bytes,
            grid.Take(), counter[i]));
      }
      auto restored = HImpactService::Create(options).value();
      ASSERT_TRUE(restored.RestoreFrom(path).ok());
      EXPECT_EQ(AnswerTranscript(restored), answers_before);
      ExpectSameHeavyReport(heavy_before, restored.HeavyReport(), "restored");
      // A save writes the current layout, byte for byte the original's.
      const std::string resaved = TempPath("layout_resaved");
      EXPECT_TRUE(SavedFiles(restored, resaved) == base_files);

      WalApplyStats applied;
      ASSERT_TRUE(ReplayWal(wal_dir, &restored, nullptr, &applied).ok());
      EXPECT_EQ(applied.applied_adds + applied.applied_papers, 3000u);
      EXPECT_EQ(AnswerTranscript(restored), AnswerTranscript(original));
      ExpectSameHeavyReport(original.HeavyReport(), restored.HeavyReport(),
                            "replayed");
      EXPECT_TRUE(SavedFiles(restored, resaved) == current_files);

      // The replayed adds took ids above their stripe's counter, so no
      // sample holds an id twice, and some mix both kinds.
      std::size_t mixed = 0;
      for (std::vector<PaperId> ids :
           GridSamplePaperIds(HImpactService::GridPath(resaved), stripes)) {
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
            << "a sample holds a paper id twice";
        bool restored_id = false;
        bool new_id = false;
        for (const PaperId id : ids) {
          const bool minted = id / stripes < counter[id % stripes];
          restored_id |= minted;
          new_id |= !minted;
        }
        mixed += restored_id && new_id ? 1 : 0;
      }
      EXPECT_GT(mixed, 0u) << "no sample mixes restored and new ids";
      RemoveServiceCheckpoint(path, stripes);
      RemoveServiceCheckpoint(resaved, stripes);
    }

    // A reservoir-format grid in an earlier layout's stripe is refused.
    const std::string path = TempPath("layout_reservoir");
    RemoveServiceCheckpoint(path, stripes);
    std::filesystem::copy_file(base, path);
    for (std::size_t i = 0; i < stripes; ++i) {
      std::filesystem::copy_file(HImpactService::StripePath(base, i),
                                 HImpactService::StripePath(path, i));
      ByteWriter grid;
      stripe_grids[i].SerializeTo(grid);
      ASSERT_TRUE(test::ReencodeStripeFileAsLegacy(
          HImpactService::StripePath(path, i), '3', archive_bytes,
          grid.Take(), counter[i]));
    }
    ASSERT_TRUE(test::ReencodeWithReservoirGridMagic(
        HImpactService::StripePath(path, stripes - 1),
        CheckpointTag::kServiceStripe));
    auto target = HImpactService::Create(options).value();
    Feed(target, 5, 300);
    const std::string target_before = AnswerTranscript(target);
    bool refused = false;
    const Status status = target.RestoreFrom(path, &refused);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(refused);
    EXPECT_NE(status.message().find(
                  HImpactService::StripePath(path, stripes - 1)),
              std::string::npos)
        << status.message();
    EXPECT_EQ(AnswerTranscript(target), target_before);

    RemoveServiceCheckpoint(path, stripes);
    RemoveServiceCheckpoint(base, stripes);
    RemoveServiceCheckpoint(current, stripes);
    std::filesystem::remove_all(wal_dir);
  }
}

TEST(ServiceCheckpoint, GridFileMustMatchTheManifest) {
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto heavy = HImpactService::Create(options).value();
  Feed(heavy, 0, 2000);
  const std::string path = TempPath("grid_manifest");
  ASSERT_TRUE(heavy.CheckpointTo(path).ok());

  // Under a manifest without heavy hitters, a grid file is rejected.
  ServiceOptions no_heavy = options;
  no_heavy.enable_heavy_hitters = false;
  auto plain = HImpactService::Create(no_heavy).value();
  Feed(plain, 0, 2000);
  const std::string plain_path = TempPath("grid_manifest_plain");
  ASSERT_TRUE(plain.CheckpointTo(plain_path).ok());
  std::filesystem::copy_file(HImpactService::GridPath(path),
                             HImpactService::GridPath(plain_path));
  auto target = HImpactService::Create(no_heavy).value();
  Feed(target, 5, 300);
  const std::string before = AnswerTranscript(target);
  bool refused = false;
  Status status = target.RestoreFrom(plain_path, &refused);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
  EXPECT_FALSE(refused);
  EXPECT_EQ(AnswerTranscript(target), before);
  // A save without heavy hitters removes the stale grid file.
  ASSERT_TRUE(plain.CheckpointTo(plain_path).ok());
  EXPECT_FALSE(std::filesystem::exists(HImpactService::GridPath(plain_path)));
  EXPECT_TRUE(target.RestoreFrom(plain_path).ok());

  // Stripe files that mix the current layout with an earlier one.
  ByteWriter empty_grid;
  HeavyHitters::Create(HhOptions(options), options.seed)
      .value()
      .SerializeTo(empty_grid);
  ASSERT_TRUE(test::ReencodeStripeFileAsLegacy(
      HImpactService::StripePath(path, 0), '3', {}, empty_grid.Take(), 0));
  auto heavy_target = HImpactService::Create(options).value();
  status = heavy_target.RestoreFrom(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
  RemoveServiceCheckpoint(path, options.num_stripes);
  RemoveServiceCheckpoint(plain_path, options.num_stripes);
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
  ASSERT_TRUE(test::RewriteGridMagicVersion(
      HImpactService::GridPath(path), CheckpointTag::kServiceGrid, '7'));

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
