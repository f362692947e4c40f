#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "heavy/cash_register_heavy.h"
#include "random/rng.h"
#include "stream/types.h"

namespace himpact {
namespace {

/// One unaggregated response event with its authors.
struct Event {
  PaperId paper;
  AuthorList authors;
  std::int64_t delta;
};

/// A star author with `num_papers` papers, each accumulating
/// `citations_each` responses one at a time (interleaved later).
void AppendStarEvents(AuthorId author, PaperId first_paper,
                      std::uint64_t num_papers, std::uint64_t citations_each,
                      std::vector<Event>& events) {
  for (std::uint64_t p = 0; p < num_papers; ++p) {
    for (std::uint64_t c = 0; c < citations_each; ++c) {
      Event event;
      event.paper = first_paper + p;
      event.authors.PushBack(author);
      event.delta = 1;
      events.push_back(event);
    }
  }
}

CashRegisterHeavyHitters MakeSketch(
    const CashRegisterHeavyHitters::Options& options, std::uint64_t seed) {
  auto sketch = CashRegisterHeavyHitters::Create(options, seed);
  EXPECT_TRUE(sketch.ok());
  return std::move(sketch).value();
}

TEST(CashRegisterHeavyTest, RejectsBadParameters) {
  CashRegisterHeavyHitters::Options options;
  options.eps = 0.0;
  EXPECT_FALSE(CashRegisterHeavyHitters::Create(options, 1).ok());
  options.eps = 1e-300;  // 1 + eps == 1: no grid reaches the universe
  EXPECT_FALSE(CashRegisterHeavyHitters::Create(options, 1).ok());
  options.eps = 0.25;
  options.samplers_per_cell = 0;
  EXPECT_FALSE(CashRegisterHeavyHitters::Create(options, 1).ok());
}

TEST(CashRegisterHeavyTest, EmptyStreamReportsNothing) {
  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 10;
  const auto sketch = MakeSketch(options, 2);
  EXPECT_TRUE(sketch.Report().empty());
}

TEST(CashRegisterHeavyTest, SingleStarDetectedFromUnitEvents) {
  // One star (h = 40) plus small-author noise, all arriving as unit
  // response events in shuffled order.
  Rng rng(3);
  std::vector<Event> events;
  AppendStarEvents(/*author=*/5000, /*first_paper=*/0, 40, 40, events);
  for (AuthorId a = 0; a < 20; ++a) {
    AppendStarEvents(a, 1000 + a * 10, 2, 2, events);
  }
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 12;
  options.num_buckets_override = 16;
  options.num_rows_override = 3;
  auto sketch = MakeSketch(options, 4);
  for (const Event& event : events) {
    sketch.Update(event.paper, event.authors, event.delta);
  }

  const auto reports = sketch.Report();
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.front().author, 5000u);
  EXPECT_GE(reports.front().h_estimate, 0.6 * 40.0);
  EXPECT_LE(reports.front().h_estimate, 1.3 * 40.0);
}

TEST(CashRegisterHeavyTest, BatchedEventsEquivalentDetection) {
  // delta > 1 batches must behave like the equivalent unit updates.
  Rng rng(5);
  std::vector<Event> events;
  for (std::uint64_t p = 0; p < 30; ++p) {
    for (int batch = 0; batch < 6; ++batch) {
      Event event;
      event.paper = p;
      event.authors.PushBack(7);
      event.delta = 5;  // 30 citations per paper in 6 batches
      events.push_back(event);
    }
  }
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 10;
  options.num_buckets_override = 8;
  options.num_rows_override = 3;
  auto sketch = MakeSketch(options, 6);
  for (const Event& event : events) {
    sketch.Update(event.paper, event.authors, event.delta);
  }
  const auto reports = sketch.Report();
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.front().author, 7u);
  // h = min(30 papers, 30 citations) = 30.
  EXPECT_GE(reports.front().h_estimate, 18.0);
  EXPECT_LE(reports.front().h_estimate, 39.0);
}

TEST(CashRegisterHeavyTest, TwoStarsBothReported) {
  Rng rng(7);
  std::vector<Event> events;
  AppendStarEvents(11111, 0, 36, 36, events);
  AppendStarEvents(22222, 500, 30, 30, events);
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 11;
  options.num_buckets_override = 16;
  options.num_rows_override = 4;
  auto sketch = MakeSketch(options, 8);
  for (const Event& event : events) {
    sketch.Update(event.paper, event.authors, event.delta);
  }

  std::vector<AuthorId> reported;
  for (const HeavyHitterReport& report : sketch.Report()) {
    reported.push_back(report.author);
  }
  EXPECT_TRUE(std::find(reported.begin(), reported.end(), 11111u) !=
              reported.end());
  EXPECT_TRUE(std::find(reported.begin(), reported.end(), 22222u) !=
              reported.end());
}

TEST(CashRegisterHeavyTest, CoauthoredEventsCreditBothAuthors) {
  Rng rng(9);
  std::vector<Event> events;
  for (std::uint64_t p = 0; p < 25; ++p) {
    for (std::uint64_t c = 0; c < 25; ++c) {
      Event event;
      event.paper = p;
      event.authors.PushBack(100);
      event.authors.PushBack(200);
      event.delta = 1;
      events.push_back(event);
    }
  }
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 10;
  options.num_buckets_override = 16;
  options.num_rows_override = 4;
  auto sketch = MakeSketch(options, 10);
  for (const Event& event : events) {
    sketch.Update(event.paper, event.authors, event.delta);
  }
  // Both co-authors have h = 25; at least one must be reported (both
  // normally, unless they collide into the same bucket in every row).
  const auto reports = sketch.Report();
  ASSERT_FALSE(reports.empty());
  for (const HeavyHitterReport& report : reports) {
    EXPECT_TRUE(report.author == 100u || report.author == 200u);
  }
}

// Property sweep: star detection across planted h values and seeds.
class CashRegisterHeavySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(CashRegisterHeavySweep, StarDetectedAcrossScales) {
  const auto [star_h, seed] = GetParam();
  Rng rng(seed * 77 + star_h);
  std::vector<Event> events;
  AppendStarEvents(4242, 0, star_h, star_h, events);
  for (AuthorId noise = 0; noise < 10; ++noise) {
    AppendStarEvents(noise, 3000 + noise * 5, 2, 2, events);
  }
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 12;
  options.num_buckets_override = 12;
  options.num_rows_override = 3;
  auto sketch = MakeSketch(options, seed);
  for (const Event& event : events) {
    sketch.Update(event.paper, event.authors, event.delta);
  }
  const auto reports = sketch.Report();
  ASSERT_FALSE(reports.empty())
      << "star_h=" << star_h << " seed=" << seed;
  EXPECT_EQ(reports.front().author, 4242u);
  EXPECT_GE(reports.front().h_estimate,
            0.55 * static_cast<double>(star_h));
  EXPECT_LE(reports.front().h_estimate,
            1.35 * static_cast<double>(star_h));
}

INSTANTIATE_TEST_SUITE_P(
    HBySeed, CashRegisterHeavySweep,
    ::testing::Combine(::testing::Values(15ull, 30ull, 50ull),
                       ::testing::Values(1ull, 2ull, 3ull)));

TEST(CashRegisterHeavyTest, DeterministicPerSeed) {
  Rng rng(11);
  std::vector<Event> events;
  AppendStarEvents(42, 0, 20, 20, events);
  Shuffle(events, rng);

  CashRegisterHeavyHitters::Options options;
  options.eps = 0.3;
  options.universe = 1 << 10;
  options.num_buckets_override = 8;
  options.num_rows_override = 2;
  auto a = MakeSketch(options, 12);
  auto b = MakeSketch(options, 12);
  for (const Event& event : events) {
    a.Update(event.paper, event.authors, event.delta);
    b.Update(event.paper, event.authors, event.delta);
  }
  const auto ra = a.Report();
  const auto rb = b.Report();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].author, rb[i].author);
    EXPECT_DOUBLE_EQ(ra[i].h_estimate, rb[i].h_estimate);
  }
}

}  // namespace
}  // namespace himpact
