#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/exact.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "stream/expand.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

TEST(ExactHIndexTest, HandCases) {
  EXPECT_EQ(ExactHIndex({}), 0u);
  EXPECT_EQ(ExactHIndex({0}), 0u);
  EXPECT_EQ(ExactHIndex({1}), 1u);
  EXPECT_EQ(ExactHIndex({100}), 1u);
  EXPECT_EQ(ExactHIndex({1, 1, 1}), 1u);
  EXPECT_EQ(ExactHIndex({2, 2, 2}), 2u);
  EXPECT_EQ(ExactHIndex({5, 4, 3, 2, 1}), 3u);
  EXPECT_EQ(ExactHIndex({10, 10, 10, 10}), 4u);
  EXPECT_EQ(ExactHIndex({0, 0, 0}), 0u);
}

TEST(ExactHIndexTest, PaperExampleTwo) {
  // Example 2 of the paper: ten values, mostly 5s with two 6s -> h* = 5.
  const std::vector<std::uint64_t> v = {5, 5, 6, 5, 5, 6, 5, 5, 5, 5};
  EXPECT_EQ(ExactHIndex(v), 5u);
}

TEST(ExactHIndexTest, PermutationInvariant) {
  Rng rng(1);
  std::vector<std::uint64_t> v = {9, 1, 4, 4, 7, 0, 2, 8, 8, 3};
  const std::uint64_t h = ExactHIndex(v);
  for (int trial = 0; trial < 10; ++trial) {
    Shuffle(v, rng);
    EXPECT_EQ(ExactHIndex(v), h);
  }
}

TEST(ExactHIndexTest, CappedByLengthAndMax) {
  // h* <= n and h* <= max(V).
  Rng rng(2);
  const ZipfSampler zipf(10000, 1.1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 100; ++i) v.push_back(zipf.Sample(rng));
    const std::uint64_t h = ExactHIndex(v);
    EXPECT_LE(h, v.size());
    EXPECT_LE(h, *std::max_element(v.begin(), v.end()));
  }
}

TEST(ExactHIndexTest, DefinitionHolds) {
  // h* satisfies: >= h* values are >= h*, and fewer than h*+1 values are
  // >= h*+1.
  Rng rng(3);
  const ZipfSampler zipf(1000, 1.3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> v;
    const int n = 1 + static_cast<int>(rng.UniformU64(200));
    for (int i = 0; i < n; ++i) v.push_back(zipf.Sample(rng) - 1);
    const std::uint64_t h = ExactHIndex(v);
    const auto count_ge = [&](std::uint64_t t) {
      return static_cast<std::uint64_t>(
          std::count_if(v.begin(), v.end(),
                        [&](std::uint64_t x) { return x >= t; }));
    };
    if (h > 0) EXPECT_GE(count_ge(h), h);
    EXPECT_LT(count_ge(h + 1), h + 1);
  }
}

TEST(HIndexSupportTest, SupportAtLeastH) {
  const std::vector<std::uint64_t> v = {5, 5, 6, 5, 5, 6, 5, 5, 5, 5};
  EXPECT_EQ(HIndexSupportSize(v), 10u);
  EXPECT_EQ(HIndexSupportSize({3, 2, 1}), 2u);
  EXPECT_EQ(HIndexSupportSize({}), 0u);
  EXPECT_EQ(HIndexSupportSize({0, 0}), 0u);
}

TEST(IncrementalExactTest, MatchesOfflineStepByStep) {
  Rng rng(4);
  const ZipfSampler zipf(500, 1.2);
  std::vector<std::uint64_t> so_far;
  IncrementalExactHIndex incremental;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = zipf.Sample(rng) - 1;  // include zeros
    so_far.push_back(v);
    incremental.Add(v);
    ASSERT_EQ(incremental.HIndex(), ExactHIndex(so_far)) << "step " << i;
  }
}

TEST(IncrementalExactTest, SpaceIsOrderH) {
  IncrementalExactHIndex incremental;
  for (int i = 0; i < 10000; ++i) incremental.Add(50);
  EXPECT_EQ(incremental.HIndex(), 50u);
  // The heap retains exactly h values.
  EXPECT_EQ(incremental.EstimateSpace().words, 50u);
}

// A checkpoint whose declared count times the record size wraps past
// 2^64 must be rejected before anything is sized from the count.
TEST(IncrementalExactTest, DeserializeRejectsWrappingCount) {
  ByteWriter empty;
  IncrementalExactHIndex().SerializeTo(empty);
  ByteWriter crafted;
  for (std::size_t i = 0; i < 8; ++i) crafted.U8(empty.buffer()[i]);  // magic
  crafted.U64((std::uint64_t{1} << 61) + 1);  // * 8 wraps to 8
  crafted.U64(0);
  ByteReader reader(crafted.buffer());
  const auto restored = IncrementalExactHIndex::DeserializeFrom(reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExactCashRegisterTest, MatchesOfflineStepByStep) {
  Rng rng(5);
  const std::uint64_t num_papers = 60;
  ExactCashRegisterHIndex tracker;
  std::vector<std::uint64_t> totals(num_papers, 0);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t paper = rng.UniformU64(num_papers);
    const std::int64_t delta = rng.UniformInt(1, 4);
    totals[paper] += static_cast<std::uint64_t>(delta);
    tracker.Update(paper, delta);
    ASSERT_EQ(tracker.HIndex(), ExactHIndex(totals)) << "step " << i;
  }
  EXPECT_EQ(tracker.NumPapers(), num_papers);
}

TEST(ExactCashRegisterTest, CountQueries) {
  ExactCashRegisterHIndex tracker;
  tracker.Update(7, 3);
  tracker.Update(7, 2);
  tracker.Update(9, 1);
  EXPECT_EQ(tracker.Count(7), 5u);
  EXPECT_EQ(tracker.Count(9), 1u);
  EXPECT_EQ(tracker.Count(1000), 0u);
}

TEST(ExactCashRegisterTest, ZeroDeltaIgnored) {
  ExactCashRegisterHIndex tracker;
  tracker.Update(1, 0);
  EXPECT_EQ(tracker.NumPapers(), 0u);
  EXPECT_EQ(tracker.HIndex(), 0u);
}

TEST(ExactCashRegisterTest, LargeJumpsHandled) {
  ExactCashRegisterHIndex tracker;
  for (std::uint64_t paper = 0; paper < 10; ++paper) {
    tracker.Update(paper, 1000000);
  }
  EXPECT_EQ(tracker.HIndex(), 10u);
}

// Property: the H-index of a planted vector equals its target, across
// sizes and seeds.
class PlantedHProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(PlantedHProperty, PlantedVectorHasTargetH) {
  const auto [target, seed] = GetParam();
  Rng rng(seed);
  VectorSpec spec;
  spec.kind = VectorKind::kPlanted;
  spec.n = target * 3 + 10;
  spec.target_h = target;
  const AggregateStream values = MakeVector(spec, rng);
  EXPECT_EQ(ExactHIndex(values), target);
}

INSTANTIATE_TEST_SUITE_P(
    TargetBySeed, PlantedHProperty,
    ::testing::Combine(::testing::Values(0ull, 1ull, 5ull, 50ull, 500ull),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace himpact
