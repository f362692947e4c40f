#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/g_index.h"
#include "eval/metrics.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

TEST(ExactGIndexTest, HandCases) {
  EXPECT_EQ(ExactGIndex({}), 0u);
  EXPECT_EQ(ExactGIndex({0}), 0u);
  EXPECT_EQ(ExactGIndex({1}), 1u);
  // {9}: top-1 sum 9 >= 1; can't take g = 2 (only one paper).
  EXPECT_EQ(ExactGIndex({9}), 1u);
  // {4, 4, 4}: sums 4, 8, 12 vs 1, 4, 9 -> g = 3 (12 >= 9).
  EXPECT_EQ(ExactGIndex({4, 4, 4}), 3u);
  // {3, 3, 3}: sums 3, 6, 9 vs 1, 4, 9 -> g = 3; {2, 2, 2} -> g = 2.
  EXPECT_EQ(ExactGIndex({3, 3, 3}), 3u);
  EXPECT_EQ(ExactGIndex({2, 2, 2}), 2u);
  // {10, 1, 1}: sums 10, 11, 12 vs 1, 4, 9 -> g = 3.
  EXPECT_EQ(ExactGIndex({10, 1, 1}), 3u);
  // One blockbuster among duds: g rewards it, h does not.
  EXPECT_EQ(ExactGIndex({100, 0, 0, 0, 0, 0, 0, 0, 0, 0}), 10u);
  EXPECT_EQ(ExactHIndex({100, 0, 0, 0, 0, 0, 0, 0, 0, 0}), 1u);
}

TEST(ExactGIndexTest, AtLeastHIndex) {
  // g >= h always (the top h papers alone contribute >= h^2).
  Rng rng(1);
  const ZipfSampler zipf = ZipfSampler(10000, 1.2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> values;
    const int n = 1 + static_cast<int>(rng.UniformU64(400));
    for (int i = 0; i < n; ++i) values.push_back(zipf.Sample(rng) - 1);
    EXPECT_GE(ExactGIndex(values), ExactHIndex(values));
  }
}

TEST(ExactGIndexTest, CappedByPaperCount) {
  // Three mega-papers: g cannot exceed 3 in the unpadded definition.
  EXPECT_EQ(ExactGIndex({1000000, 1000000, 1000000}), 3u);
}

TEST(GIndexEstimatorTest, RejectsBadParameters) {
  EXPECT_FALSE(GIndexEstimator::Create(0.0, 100).ok());
  EXPECT_FALSE(GIndexEstimator::Create(1.0, 100).ok());
  EXPECT_FALSE(GIndexEstimator::Create(0.1, 0).ok());
  EXPECT_FALSE(GIndexEstimator::Create(1e-300, 100).ok());  // 1 + eps == 1
}

TEST(GIndexEstimatorTest, EmptyStreamIsZero) {
  const auto estimator = GIndexEstimator::Create(0.1, 1000).value();
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(GIndexEstimatorTest, BlockbusterCase) {
  auto estimator = GIndexEstimator::Create(0.05, 1u << 20).value();
  estimator.Add(100);
  for (int i = 0; i < 9; ++i) estimator.Add(0);
  // Exact g = 10; bucket-average reconstruction is exact here (one
  // non-empty bucket).
  EXPECT_NEAR(estimator.Estimate(), 10.0, 1.0);
}

// Property sweep: the streaming estimate tracks the exact g-index within
// an O(eps) relative band across distributions and eps.
class GIndexProperty
    : public ::testing::TestWithParam<std::tuple<double, VectorKind>> {};

TEST_P(GIndexProperty, TracksExactG) {
  const auto [eps, kind] = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1009) + static_cast<int>(kind));
  VectorSpec spec;
  spec.kind = kind;
  spec.n = 5000;
  spec.max_value = 1u << 16;
  spec.target_h = 150;
  AggregateStream values = MakeVector(spec, rng);
  ApplyOrder(values, OrderPolicy::kRandom, rng);

  auto estimator = GIndexEstimator::Create(eps, spec.max_value).value();
  for (const std::uint64_t v : values) estimator.Add(v);

  const double truth = static_cast<double>(ExactGIndex(values));
  EXPECT_NEAR(estimator.Estimate(), truth, 2.0 * eps * truth + 2.0)
      << VectorKindName(kind) << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GIndexProperty,
    ::testing::Combine(::testing::Values(0.02, 0.05, 0.1, 0.2),
                       ::testing::Values(VectorKind::kZipf,
                                         VectorKind::kUniform,
                                         VectorKind::kConstant,
                                         VectorKind::kAllDistinct)));

TEST(GIndexEstimatorTest, SpaceIsTwoWordsPerLevel) {
  const auto estimator = GIndexEstimator::Create(0.1, 1u << 20).value();
  // counts + sums, no more.
  EXPECT_LE(estimator.EstimateSpace().words,
            2u * static_cast<std::uint64_t>(
                     NumGeometricLevels(1u << 20, 0.1)));
}

TEST(GIndexEstimatorTest, GAtLeastHOnStreams) {
  Rng rng(2);
  VectorSpec spec;
  spec.kind = VectorKind::kZipf;
  spec.n = 2000;
  spec.max_value = 1u << 16;
  const AggregateStream values = MakeVector(spec, rng);
  auto estimator = GIndexEstimator::Create(0.1, spec.max_value).value();
  for (const std::uint64_t v : values) estimator.Add(v);
  // Compare against the exact h (the streaming g should clear it).
  EXPECT_GE(estimator.Estimate(),
            0.8 * static_cast<double>(ExactHIndex(values)));
}

}  // namespace
}  // namespace himpact
