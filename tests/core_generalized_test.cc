#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/generalized.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

TEST(PhiSpecTest, Evaluation) {
  EXPECT_DOUBLE_EQ(PhiSpec::HIndex()(7.0), 7.0);
  EXPECT_DOUBLE_EQ(PhiSpec::Squared()(5.0), 25.0);
  EXPECT_DOUBLE_EQ(PhiSpec::Scaled(10.0)(4.0), 40.0);
}

TEST(ExactPhiIndexTest, HIndexSpecializationAgrees) {
  Rng rng(1);
  const ZipfSampler zipf(1000, 1.2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> values;
    const int n = 1 + static_cast<int>(rng.UniformU64(300));
    for (int i = 0; i < n; ++i) values.push_back(zipf.Sample(rng) - 1);
    EXPECT_EQ(ExactPhiIndex(values, PhiSpec::HIndex()), ExactHIndex(values));
  }
}

TEST(ExactPhiIndexTest, SquaredHandCases) {
  // phi(k) = k^2: need k values >= k^2.
  EXPECT_EQ(ExactPhiIndex({}, PhiSpec::Squared()), 0u);
  EXPECT_EQ(ExactPhiIndex({0}, PhiSpec::Squared()), 0u);
  EXPECT_EQ(ExactPhiIndex({1}, PhiSpec::Squared()), 1u);
  // {9, 9, 9}: 3 values >= 9 = 3^2 -> index 3.
  EXPECT_EQ(ExactPhiIndex({9, 9, 9}, PhiSpec::Squared()), 3u);
  // {8, 8, 8}: 2 values >= 4 but not 3 >= 9 -> index 2.
  EXPECT_EQ(ExactPhiIndex({8, 8, 8}, PhiSpec::Squared()), 2u);
  // {100, 1, 1}: 1 value >= 1; 100 >= 4 but only one big value -> 1.
  EXPECT_EQ(ExactPhiIndex({100, 1, 1}, PhiSpec::Squared()), 1u);
}

TEST(ExactPhiIndexTest, SquaredAtMostSqrtOfH) {
  // The squared index is never larger than the H-index.
  Rng rng(2);
  const ZipfSampler zipf(10000, 1.1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 200; ++i) values.push_back(zipf.Sample(rng));
    EXPECT_LE(ExactPhiIndex(values, PhiSpec::Squared()),
              ExactHIndex(values));
  }
}

TEST(ExactPhiIndexTest, ScaledMonotoneInScale) {
  const std::vector<std::uint64_t> values = {50, 40, 30, 20, 10, 5, 2};
  std::uint64_t prev = ~0ull;
  for (const double c : {1.0, 2.0, 5.0, 10.0, 50.0}) {
    const std::uint64_t index = ExactPhiIndex(values, PhiSpec::Scaled(c));
    EXPECT_LE(index, prev);
    prev = index;
  }
}

TEST(PhiIndexEstimatorTest, RejectsBadParameters) {
  EXPECT_FALSE(PhiIndexEstimator::Create(0.0, 100, PhiSpec::HIndex()).ok());
  EXPECT_FALSE(PhiIndexEstimator::Create(0.1, 0, PhiSpec::HIndex()).ok());
  EXPECT_FALSE(
      PhiIndexEstimator::Create(1e-300, 100, PhiSpec::HIndex()).ok());
  PhiSpec bad_scale = PhiSpec::HIndex();
  bad_scale.scale = 0.0;
  EXPECT_FALSE(PhiIndexEstimator::Create(0.1, 100, bad_scale).ok());
  PhiSpec bad_power = PhiSpec::HIndex();
  bad_power.power = -1.0;
  EXPECT_FALSE(PhiIndexEstimator::Create(0.1, 100, bad_power).ok());
}

TEST(PhiIndexEstimatorTest, EmptyStreamIsZero) {
  const auto estimator =
      PhiIndexEstimator::Create(0.1, 100, PhiSpec::Squared()).value();
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

// Property sweep: the streaming estimator approximates the exact
// phi-index within [(1-eps) k* - eps, k* + 1] (the +1 absorbs guess-grid
// rounding at fractional guesses) for all three phi families and several
// eps values, across distributions.
class PhiEstimatorProperty
    : public ::testing::TestWithParam<std::tuple<double, int, VectorKind>> {};

TEST_P(PhiEstimatorProperty, TracksExactIndex) {
  const auto [eps, phi_id, kind] = GetParam();
  const PhiSpec phi = phi_id == 0   ? PhiSpec::HIndex()
                      : phi_id == 1 ? PhiSpec::Squared()
                                    : PhiSpec::Scaled(10.0);
  Rng rng(static_cast<std::uint64_t>(eps * 997) + phi_id * 31 +
          static_cast<int>(kind));
  VectorSpec spec;
  spec.kind = kind;
  spec.n = 3000;
  spec.max_value = 1u << 16;
  AggregateStream values = MakeVector(spec, rng);
  ApplyOrder(values, OrderPolicy::kDescending, rng);

  auto estimator = PhiIndexEstimator::Create(eps, spec.n, phi).value();
  for (const std::uint64_t v : values) estimator.Add(v);

  const double truth = static_cast<double>(ExactPhiIndex(values, phi));
  EXPECT_LE(estimator.Estimate(), truth + 1.0 + 1e-9);
  EXPECT_GE(estimator.Estimate(), (1.0 - eps) * truth - eps - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PhiEstimatorProperty,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.3),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(VectorKind::kZipf,
                                         VectorKind::kUniform,
                                         VectorKind::kAllDistinct)));

TEST(PhiIndexEstimatorTest, SquaredUsesFewerQualifyingGuesses) {
  // For phi(k) = k^2 the counters saturate much earlier; the estimate of
  // a constant-100 vector is ~10 (since 10 values >= 100 = 10^2).
  auto estimator =
      PhiIndexEstimator::Create(0.05, 1000, PhiSpec::Squared()).value();
  for (int i = 0; i < 1000; ++i) estimator.Add(100);
  EXPECT_LE(estimator.Estimate(), 10.0 + 1e-9);
  EXPECT_GE(estimator.Estimate(), 9.0);
}

}  // namespace
}  // namespace himpact
