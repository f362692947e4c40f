#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hash/tabulation.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "sketch/count_min.h"
#include "sketch/bottom_sample.h"
#include "sketch/space_saving.h"

namespace himpact {
namespace {

// --- CountMinSketch ---------------------------------------------------------

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch sketch(0.01, 0.01, 1);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  Rng rng(1);
  const ZipfSampler zipf(1000, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = zipf.Sample(rng);
    ++truth[key];
    sketch.Update(key);
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.Query(key), count);
  }
}

TEST(CountMinTest, OverestimateBounded) {
  const double eps = 0.005;
  CountMinSketch sketch(eps, 0.01, 2);
  Rng rng(2);
  const ZipfSampler zipf(10000, 1.1);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = zipf.Sample(rng);
    ++truth[key];
    sketch.Update(key);
  }
  int violations = 0;
  for (const auto& [key, count] : truth) {
    if (sketch.Query(key) > count + static_cast<std::uint64_t>(
                                        eps * sketch.total()) ) {
      ++violations;
    }
  }
  // Guarantee holds per-key w.p. 1-delta; allow a small number of misses.
  EXPECT_LE(violations, static_cast<int>(truth.size() / 20));
}

TEST(CountMinTest, UnseenKeySmall) {
  CountMinSketch sketch(0.001, 0.01, 3);
  for (std::uint64_t i = 0; i < 1000; ++i) sketch.Update(i);
  EXPECT_LE(sketch.Query(999999), 1000 * 0.001 * 3);
}

TEST(CountMinTest, WeightedUpdates) {
  CountMinSketch sketch(0.01, 0.01, 4);
  sketch.Update(5, 100);
  sketch.Update(5, 23);
  EXPECT_GE(sketch.Query(5), 123u);
  EXPECT_EQ(sketch.total(), 123u);
}

TEST(CountMinTest, DimensionsMatchFormula) {
  const CountMinSketch sketch(0.01, 0.001, 5);
  EXPECT_EQ(sketch.width(), 272u);  // ceil(e / 0.01)
  EXPECT_EQ(sketch.depth(), 7u);    // ceil(ln 1000)
}

// --- SpaceSaving -------------------------------------------------------------

TEST(SpaceSavingTest, ExactBelowCapacity) {
  SpaceSaving summary(10);
  summary.Update(1, 5);
  summary.Update(2, 3);
  summary.Update(1, 2);
  const auto entries = summary.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[0].count, 7u);
  EXPECT_EQ(entries[0].error, 0u);
  EXPECT_EQ(entries[1].key, 2u);
  EXPECT_EQ(entries[1].count, 3u);
}

TEST(SpaceSavingTest, GuaranteesHold) {
  // count - error <= true <= count, and any key with true count >
  // total/capacity is monitored.
  const std::size_t capacity = 50;
  SpaceSaving summary(capacity);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  Rng rng(3);
  const ZipfSampler zipf(2000, 1.3);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t key = zipf.Sample(rng);
    ++truth[key];
    summary.Update(key);
  }
  std::unordered_map<std::uint64_t, HeavyEntry> monitored;
  for (const HeavyEntry& entry : summary.Entries()) {
    monitored[entry.key] = entry;
    const std::uint64_t true_count =
        truth.contains(entry.key) ? truth.at(entry.key) : 0;
    EXPECT_GE(entry.count, true_count);
    EXPECT_LE(entry.count - entry.error, true_count);
  }
  const std::uint64_t threshold = summary.total() / capacity;
  for (const auto& [key, count] : truth) {
    if (count > threshold) {
      EXPECT_TRUE(monitored.contains(key)) << "heavy key " << key;
    }
  }
}

TEST(SpaceSavingTest, TotalTracksWeight) {
  SpaceSaving summary(4);
  for (std::uint64_t i = 0; i < 100; ++i) summary.Update(i, 2);
  EXPECT_EQ(summary.total(), 200u);
  EXPECT_EQ(summary.Entries().size(), 4u);
}

// --- MisraGries --------------------------------------------------------------

TEST(MisraGriesTest, ExactBelowK) {
  MisraGries summary(10);
  summary.Update(7, 4);
  summary.Update(8, 2);
  const auto entries = summary.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, 7u);
  EXPECT_EQ(entries[0].count, 4u);
}

TEST(MisraGriesTest, LowerBoundGuarantee) {
  const std::size_t k = 20;
  MisraGries summary(k);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  Rng rng(4);
  const ZipfSampler zipf(500, 1.5);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = zipf.Sample(rng);
    ++truth[key];
    summary.Update(key);
  }
  // Each surviving counter is a lower bound within total/(k+1).
  const double slack =
      static_cast<double>(summary.total()) / static_cast<double>(k + 1);
  for (const HeavyEntry& entry : summary.Entries()) {
    const std::uint64_t true_count =
        truth.contains(entry.key) ? truth.at(entry.key) : 0;
    EXPECT_LE(entry.count, true_count);
    EXPECT_GE(static_cast<double>(entry.count),
              static_cast<double>(true_count) - slack);
  }
}

TEST(MisraGriesTest, MajorityElementSurvives) {
  MisraGries summary(1);
  for (int i = 0; i < 100; ++i) summary.Update(42);
  for (int i = 0; i < 49; ++i) summary.Update(static_cast<std::uint64_t>(i));
  const auto entries = summary.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, 42u);
}

// --- BottomSample ------------------------------------------------------------

// (priority, id) entries: the priority is a seeded hash of the id.
using Keyed = std::pair<std::uint64_t, std::uint64_t>;

TEST(BottomSampleTest, KeepsAllWhenUnderCapacity) {
  BottomSample<Keyed> sample;
  const TabulationHash hash(5);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(sample.Offer({hash(i), i}, 10));
  }
  EXPECT_EQ(sample.entries().size(), 5u);
  EXPECT_TRUE(std::is_sorted(sample.entries().begin(), sample.entries().end()));
}

TEST(BottomSampleTest, KeepsTheSmallestAtCapacity) {
  BottomSample<Keyed> sample;
  Rng rng(6);
  std::vector<std::uint64_t> keys(1000);
  for (std::uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  Shuffle(keys, rng);
  for (const std::uint64_t key : keys) sample.Offer({key, key}, 8);
  ASSERT_EQ(sample.entries().size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sample.entries()[i], Keyed(i, i));
  }
}

TEST(BottomSampleTest, RepeatedEntryTakesOneSlot) {
  BottomSample<Keyed> sample;
  EXPECT_TRUE(sample.Offer({3, 1}, 4));
  EXPECT_FALSE(sample.Offer({3, 1}, 4));
  EXPECT_TRUE(sample.Offer({3, 2}, 4));  // equal priority, other id
  EXPECT_EQ(sample.entries().size(), 2u);
}

TEST(BottomSampleTest, UniformInclusionProbability) {
  // Item 0 of n sequential ids should be retained with probability
  // capacity/n over the seeds of the priority hash.
  const std::size_t capacity = 5;
  const int n = 50;
  const int trials = 20000;
  int retained = 0;
  for (int t = 0; t < trials; ++t) {
    const TabulationHash hash(7 + static_cast<std::uint64_t>(t));
    BottomSample<Keyed> sample;
    for (std::uint64_t i = 0; i < n; ++i) sample.Offer({hash(i), i}, capacity);
    for (const Keyed& entry : sample.entries()) {
      if (entry.second == 0) ++retained;
    }
  }
  const double expected = static_cast<double>(capacity) / n;
  EXPECT_NEAR(static_cast<double>(retained) / trials, expected,
              expected * 0.15);
}

TEST(BottomSampleTest, MergeEqualsOneSampleOfTheUnion) {
  // Overlapping halves: ids 0..599 and 400..999 under one hash.
  const TabulationHash hash(8);
  BottomSample<Keyed> whole;
  BottomSample<Keyed> low;
  BottomSample<Keyed> high;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    whole.Offer({hash(i), i}, 16);
    if (i < 600) low.Offer({hash(i), i}, 16);
    if (i >= 400) high.Offer({hash(i), i}, 16);
  }
  BottomSample<Keyed> low_high = low;
  low_high.Merge(high, 16);
  high.Merge(low, 16);
  EXPECT_EQ(low_high.entries(), whole.entries());
  EXPECT_EQ(high.entries(), whole.entries());
}

}  // namespace
}  // namespace himpact
