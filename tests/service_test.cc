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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
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

// --- registry: the stripe decoder corpus ------------------------------------

std::vector<std::uint8_t> Varints(std::initializer_list<std::uint64_t> values) {
  ByteWriter writer;
  for (const std::uint64_t v : values) writer.Varint(v);
  return writer.Take();
}

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// One stripe user: its id gap, last touch 1, then its user record (the
// tier byte and the varint `fields` after it).
std::vector<std::uint8_t> StripeUser(std::uint64_t gap, std::uint8_t tier,
                                     std::initializer_list<std::uint64_t>
                                         fields) {
  std::vector<std::uint8_t> bytes = Varints({gap, 1});
  bytes.push_back(tier);
  const std::vector<std::uint8_t> rest = Varints(fields);
  bytes.insert(bytes.end(), rest.begin(), rest.end());
  return bytes;
}

ServiceOptions OneStripeOptions() {
  ServiceOptions options = SmallOptions();
  options.num_stripes = 1;
  return options;
}

// A `HIMPSRG5` payload of stripe 0 of 1 (docs/CHECKPOINTS.md): the
// header claiming `num_users`, the `users` bytes, and a leaderboard of
// user 7 at `board_estimate`.
std::vector<std::uint8_t> StripePayload(std::uint64_t num_users,
                                        const std::vector<std::uint8_t>& users,
                                        double board_estimate = 4.0) {
  ByteWriter writer;
  writer.U64(0x48494d5053524735ULL);  // HIMPSRG5
  writer.U64(0);                      // stripe index
  writer.U64(1);                      // stripe count
  writer.U64(~std::uint64_t{0});      // generation bound: no segment store
  for (const std::uint64_t counter : {36, 1, 2, 4}) writer.U64(counter);
  writer.U64(num_users);
  writer.Bytes(users.data(), users.size());
  writer.U64(1);
  writer.U64(7);
  writer.F64(board_estimate);
  return writer.Take();
}

Status DecodeStripe(const std::vector<std::uint8_t>& payload) {
  auto registry = TieredUserRegistry::Create(OneStripeOptions()).value();
  ByteReader reader(payload);
  return registry.DeserializeStripe(0, reader);
}

// Users 5 (cold), 7 (hot), 8 (frozen) and 300 (segment).
std::vector<std::uint8_t> FourTierUsers() {
  const ServiceOptions options = OneStripeOptions();
  auto sketch =
      ExponentialHistogramEstimator::Create(options.eps, options.max_h).value();
  for (const std::uint64_t v : {50, 50, 50, 3, 1000}) sketch.Add(v);
  std::vector<std::uint8_t> users =
      StripeUser(5, 0, {3, Bits(0.0), 2, 3, 4, 2, 1});
  std::vector<std::uint8_t> hot = StripeUser(2, 1, {20, Bits(2.0), 2});
  ByteWriter buckets;
  sketch.SerializeSparseTo(buckets);
  hot.insert(hot.end(), buckets.buffer().begin(), buckets.buffer().end());
  for (const std::vector<std::uint8_t>& user :
       {hot, StripeUser(1, 2, {4, Bits(3.0), 0}),
        StripeUser(292, 3, {9, Bits(4.0), 0})}) {
    users.insert(users.end(), user.begin(), user.end());
  }
  return users;
}

TEST(RegistrySerialize, EveryTruncationOfAFourTierStripeIsRejected) {
  const std::vector<std::uint8_t> payload = StripePayload(4, FourTierUsers());
  auto registry = TieredUserRegistry::Create(OneStripeOptions()).value();
  ByteReader reader(payload);
  ASSERT_TRUE(registry.DeserializeStripe(0, reader).ok());
  // The crafted payload is the layout `SerializeStripe` writes.
  ByteWriter reencoded;
  registry.SerializeStripe(0, reencoded);
  EXPECT_EQ(reencoded.buffer(), payload);
  const std::pair<AuthorId, UserTier> tiers[] = {{5, UserTier::kCold},
                                                 {7, UserTier::kHot},
                                                 {8, UserTier::kFrozen},
                                                 {300, UserTier::kSegment}};
  for (const auto& [user, tier] : tiers) {
    UserSnapshot snapshot;
    ASSERT_TRUE(registry.Lookup(user, &snapshot)) << "user " << user;
    EXPECT_EQ(snapshot.tier, tier) << "user " << user;
  }
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_EQ(DecodeStripe(test::TruncateAt(payload, cut)).code(),
              StatusCode::kInvalidArgument)
        << "cut " << cut;
  }
}

TEST(RegistrySerialize, CraftedStripesAreRejected) {
  const std::vector<std::uint8_t> frozen = StripeUser(5, 2, {1, Bits(1.0), 0});
  const auto join = [](std::initializer_list<std::vector<std::uint8_t>> parts) {
    std::vector<std::uint8_t> bytes;
    for (const std::vector<std::uint8_t>& part : parts) {
      bytes.insert(bytes.end(), part.begin(), part.end());
    }
    return bytes;
  };
  ASSERT_TRUE(DecodeStripe(StripePayload(1, frozen)).ok());

  // The smallest user takes 6 bytes (`kMinUserRecordBytes`), which caps
  // what a count past the users present reserves before it is rejected.
  std::vector<std::uint8_t> minimal;
  for (int u = 0; u < 1000; ++u) {
    const std::vector<std::uint8_t> user = StripeUser(1, 2, {0, 0, 0});
    ASSERT_EQ(user.size(), 6u);
    minimal.insert(minimal.end(), user.begin(), user.end());
  }
  ASSERT_TRUE(DecodeStripe(StripePayload(1000, minimal)).ok());

  std::vector<std::uint8_t> trailing = StripePayload(1, frozen);
  trailing.push_back(0);
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> cases =
      {{"0 id gap",
        StripePayload(2, join({frozen, StripeUser(0, 2, {1, 0, 0})}))},
       {"id past 2^64 - 1",
        StripePayload(2, join({StripeUser(~std::uint64_t{0}, 2, {1, 0, 0}),
                               StripeUser(1, 2, {1, 0, 0})}))},
       {"tier 4", StripePayload(1, StripeUser(5, 4, {1, 0, 0}))},
       {"cold count past the bytes left",
        StripePayload(1, StripeUser(5, 0, {1, 0, 1, 1000, 1}))},
       {"cold count 2^62",
        StripePayload(1, StripeUser(5, 0, {1, 0, 1, std::uint64_t{1} << 62}))},
       {"overlong id gap",
        StripePayload(1, join({{0x85, 0x00}, Varints({1}), {2},
                               Varints({1, 0, 0})}))},
       {"trailing bytes", trailing},
       {"one user more than present", StripePayload(1001, minimal)},
       {"2^62 users", StripePayload(std::uint64_t{1} << 62, minimal)},
       {"NaN floor",
        StripePayload(1, StripeUser(5, 2, {1, Bits(std::nan("")), 0}))},
       {"infinite floor",
        StripePayload(1, StripeUser(5, 2, {1, Bits(HUGE_VAL), 0}))},
       {"negative floor",
        StripePayload(1, StripeUser(5, 2, {1, Bits(-1.0), 0}))},
       {"NaN board estimate", StripePayload(1, frozen, std::nan(""))},
       {"infinite board estimate", StripePayload(1, frozen, -HUGE_VAL)},
       {"negative board estimate", StripePayload(1, frozen, -1.0)}};
  for (const auto& [name, payload] : cases) {
    EXPECT_EQ(DecodeStripe(payload).code(), StatusCode::kInvalidArgument)
        << name;
  }
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
  // L samples of s entries, an entry counted as one `SampledPaper`.
  // docs/SERVICE.md names the constant. The samples hold 16 B references
  // into one table of the distinct tuples, so this stream, which fills
  // nearly every sample of a default grid, measures 0.22 of that space,
  // and 1.03 of the interned bound below.
  // The grid is the service's at its defaults, fed offline:
  // `HeavyReportIsTheOfflineGridsReport` shows the served grid is one.
  constexpr double kConstant = 1.25;
  const ServiceOptions options;
  ASSERT_TRUE(options.enable_heavy_hitters);
  const auto make = [&options] {
    return HeavyHitters::Create(HhOptions(options), options.seed).value();
  };
  auto grid = make();
  auto detector_options = OneHeavyHitter::Options{};
  detector_options.eps = options.hh_eps;
  detector_options.delta = options.hh_delta;
  detector_options.max_papers = options.hh_max_papers;
  const auto detector = OneHeavyHitter::Create(detector_options).value();
  const double levels =
      std::floor(std::log(static_cast<double>(options.hh_max_papers)) /
                 std::log1p(options.hh_eps)) +
      1;
  const double cell_levels =
      static_cast<double>(grid.num_rows() * grid.num_buckets()) * levels;
  const double space =
      cell_levels *
      (sizeof(std::uint64_t) + static_cast<double>(detector.sample_size()) *
                                   sizeof(SampledPaper));

  // Log-uniform citations up to n fill nearly every level's sample; two
  // to three authors from a wide pool spread the papers over every
  // bucket. Samples turn over all along: heavy churn of the table. One
  // id also comes under two author lists, at the top level, which takes
  // both.
  Rng rng(83);
  const double log_n = std::log2(static_cast<double>(options.hh_max_papers));
  std::vector<PaperTuple> papers;
  for (std::uint64_t p = 0; p < 60000; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations =
        static_cast<std::uint64_t>(std::exp2(rng.UniformDouble() * log_n));
    const std::uint64_t num_authors = 2 + rng.UniformU64(2);
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(rng.UniformU64(100000));
    }
    papers.push_back(paper);
  }
  constexpr PaperId kTwoLists = 1u << 30;
  for (const AuthorList& authors : {AuthorList{7}, AuthorList{7, 8}}) {
    PaperTuple paper;
    paper.paper = kTwoLists;
    paper.authors = authors;
    paper.citations = options.hh_max_papers;
    papers.push_back(paper);
  }
  for (const PaperTuple& paper : papers) grid.AddPaper(paper);
  const double bytes = static_cast<double>(grid.EstimateSpace().bytes);
  EXPECT_LE(bytes, kConstant * space)
      << "grid " << bytes << " B, paper's space " << space << " B";

  // The interned bound: the table's tuples, 16 B per reference, and per
  // level of each cell its count, bar and sample header. The rest is
  // allocation slack, the table's index and the hash functions.
  constexpr double kInternedConstant = 1.1;
  const PaperTable& table = grid.papers();
  const double interned =
      static_cast<double>(table.size() * sizeof(SampledPaper)) +
      16.0 * static_cast<double>(table.references()) +
      cell_levels * (2 * sizeof(std::uint64_t) +
                     sizeof(BottomSample<PaperTable::Ref>));
  EXPECT_LE(bytes, kInternedConstant * interned)
      << "grid " << bytes << " B, " << table.size() << " tuples, "
      << table.references() << " references";
  std::size_t two_lists = 0;
  for (const PaperTable::Slot slot : table.SortedSlots()) {
    two_lists += table[slot].paper == kTwoLists ? 1 : 0;
  }
  EXPECT_EQ(two_lists, 2u) << "one id under two author lists";

  // No slot leaks: a decoder rejects a table entry no sample references
  // and counts the references it reads, and the live table agrees.
  const auto expect_no_leak = [](const HeavyHitters& live, const char* what) {
    ByteWriter writer;
    live.SerializeTo(writer);
    ByteReader reader(writer.buffer());
    const StatusOr<HeavyHitters> decoded =
        HeavyHitters::DeserializeFrom(reader);
    ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().message();
    EXPECT_EQ(decoded.value().papers().size(), live.papers().size()) << what;
    EXPECT_EQ(decoded.value().papers().references(),
              live.papers().references())
        << what;
  };
  expect_no_leak(grid, "after churn");

  // Shards fed shuffled parts in batches, merged in shuffled order, give
  // the bytes and the table of the grid fed everything.
  std::vector<std::vector<PaperTuple>> parts(3);
  for (std::size_t i = 0; i < papers.size(); ++i) {
    parts[rng.UniformU64(parts.size())].push_back(papers[i]);
  }
  std::vector<HeavyHitters> shards;
  for (std::vector<PaperTuple>& part : parts) {
    Shuffle(part, rng);
    shards.push_back(make());
    shards.back().AddPaperBatch(part);
  }
  HeavyHitters merged = std::move(shards[2]);
  merged.Merge(shards[0]);
  merged.Merge(shards[1]);
  expect_no_leak(merged, "after a merge");
  EXPECT_EQ(merged.papers().size(), table.size());
  EXPECT_EQ(merged.papers().references(), table.references());
  ByteWriter merged_bytes;
  merged.SerializeTo(merged_bytes);
  ByteWriter whole_bytes;
  grid.SerializeTo(whole_bytes);
  EXPECT_TRUE(merged_bytes.buffer() == whole_bytes.buffer());
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

// Restores `path`, whose `file` was rewritten into an earlier build's
// `layout`, into a service that already holds state: the restore is
// refused, names the file, the layout and the last build that reads it,
// and leaves both the service and every checkpoint file as they were.
void ExpectRefusedAndUntouched(const std::string& path,
                               const ServiceOptions& options,
                               const std::string& file,
                               const std::string& layout,
                               const std::string& build) {
  std::vector<std::string> files = {path, HImpactService::GridPath(path)};
  for (std::size_t i = 0; i < options.num_stripes; ++i) {
    files.push_back(HImpactService::StripePath(path, i));
  }
  std::vector<std::vector<std::uint8_t>> before_files;
  for (const std::string& f : files) before_files.push_back(ReadBytes(f));
  auto target = HImpactService::Create(options).value();
  Feed(target, 5, 300);
  const std::string before = AnswerTranscript(target);
  const std::vector<HeavyHitterReport> heavy_before = target.HeavyReport();
  bool refused = false;
  const Status status = target.RestoreFrom(path, &refused);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.message();
  EXPECT_TRUE(refused);
  for (const std::string& part : {file, "(" + layout + ")", build}) {
    EXPECT_NE(status.message().find(part), std::string::npos)
        << part << " not in: " << status.message();
  }
  EXPECT_EQ(AnswerTranscript(target), before);
  ExpectSameHeavyReport(heavy_before, target.HeavyReport(), "after refusal");
  for (std::size_t f = 0; f < files.size(); ++f) {
    EXPECT_EQ(ReadBytes(files[f]), before_files[f]) << files[f];
  }
}

TEST(ServiceCheckpoint, EarlierGridLayoutsAreRefusedAndKeepState) {
  // Reservoirs (HIMPHHS1) cannot stand in for bottom-s samples, and
  // per-cell samples of whole tuples (HIMPHHS2) are a layout this build
  // no longer decodes: both are refused, not started over.
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  for (const char version : {'1', '2'}) {
    const std::string layout = std::string("HIMPHHS") + version;
    SCOPED_TRACE(layout);
    const std::string path = TempPath("earlier_grid");
    auto writer_service = HImpactService::Create(options).value();
    Feed(writer_service, 0, 2000);
    ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
    ASSERT_TRUE(test::RewriteGridMagicVersion(HImpactService::GridPath(path),
                                              version));
    ExpectRefusedAndUntouched(path, options, HImpactService::GridPath(path),
                              layout, "c7a62bd");
    RemoveServiceCheckpoint(path, options.num_stripes);
  }
}

TEST(ServiceCheckpoint, EarlierStripeLayoutsAreRefusedAndKeepState) {
  // HIMPSRG1-HIMPSRG3 stripe files each carried a grid of their stripe,
  // which a restore used to merge, and HIMPSRG4 wrote users fixed-width.
  // A restore now refuses them, with or without heavy hitters, whichever
  // stripe holds one.
  for (const bool heavy : {true, false}) {
    ServiceOptions options = SmallOptions();
    options.enable_heavy_hitters = heavy;
    options.num_stripes = 3;
    for (const char version : {'1', '2', '3', '4'}) {
      const std::string layout = std::string("HIMPSRG") + version;
      SCOPED_TRACE(layout + (heavy ? ", heavy" : ""));
      const std::string path = TempPath("earlier_stripe");
      auto writer_service = HImpactService::Create(options).value();
      Feed(writer_service, 0, 2000);
      ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
      const std::size_t stripe =
          static_cast<std::size_t>(version - '1') % options.num_stripes;
      const std::string stripe_path = HImpactService::StripePath(path, stripe);
      ASSERT_TRUE(test::RewriteStripeMagicVersion(stripe_path, version));
      ExpectRefusedAndUntouched(path, options, stripe_path, layout,
                                version == '4' ? "59cf277" : "c7a62bd");
      RemoveServiceCheckpoint(path, options.num_stripes);
    }
  }
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
  RemoveServiceCheckpoint(path, options.num_stripes);
  RemoveServiceCheckpoint(plain_path, options.num_stripes);
}

TEST(ServiceCheckpoint, MalformedGridIsRejectedButNotRefused) {
  // Only earlier layouts are refused; a grid that does not decode
  // is plain corruption, which a caller handles by starting fresh.
  const std::string path = TempPath("malformed_grid");
  ServiceOptions options = SmallOptions();
  options.enable_heavy_hitters = true;
  auto writer_service = HImpactService::Create(options).value();
  Feed(writer_service, 0, 2000);
  ASSERT_TRUE(writer_service.CheckpointTo(path).ok());
  ASSERT_TRUE(test::RewriteGridMagicVersion(HImpactService::GridPath(path),
                                            '7'));

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
