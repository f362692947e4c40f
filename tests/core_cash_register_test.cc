#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cash_register.h"
#include "core/exact.h"
#include "random/rng.h"
#include "stream/expand.h"
#include "workload/cascade.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

CashRegisterEstimator MakeEstimator(double eps, double delta,
                                    std::uint64_t universe, std::uint64_t seed,
                                    const CashRegisterOptions& options = {}) {
  auto estimator =
      CashRegisterEstimator::Create(eps, delta, universe, seed, options);
  EXPECT_TRUE(estimator.ok());
  return std::move(estimator).value();
}

// Feeds `events` through `UpdateBatch` in 4096-event chunks, which
// leaves a state byte-identical to one `Update` per event
// (batch_equivalence_test) at a fraction of the cost.
void UpdateInChunks(CashRegisterEstimator& estimator,
                    const CashRegisterStream& events) {
  constexpr std::size_t kChunk = 4096;
  BatchArena arena;
  const std::span<const CitationEvent> all(events);
  for (std::size_t i = 0; i < all.size(); i += kChunk) {
    estimator.UpdateBatch(all.subspan(i, std::min(kChunk, all.size() - i)),
                          arena);
  }
}

TEST(CashRegisterTest, RejectsBadParameters) {
  EXPECT_FALSE(CashRegisterEstimator::Create(0.0, 0.1, 100, 1).ok());
  EXPECT_FALSE(CashRegisterEstimator::Create(0.1, 0.0, 100, 1).ok());
  EXPECT_FALSE(CashRegisterEstimator::Create(0.1, 0.1, 0, 1).ok());
  EXPECT_FALSE(CashRegisterEstimator::Create(1e-300, 0.1, 100, 1).ok());
  CashRegisterOptions bad;
  bad.mode = CashRegisterMode::kMultiplicative;
  bad.beta = 0.0;
  EXPECT_FALSE(CashRegisterEstimator::Create(0.1, 0.1, 100, 1, bad).ok());
}

TEST(CashRegisterTest, SamplerCountMatchesTheorem) {
  // Additive: x = ceil(3 eps^-2 ln(2/delta)).
  auto estimator = MakeEstimator(0.3, 0.2, 1000, 1);
  const double expected = std::ceil(3.0 / (0.3 * 0.3) * std::log(2.0 / 0.2));
  EXPECT_EQ(estimator.num_samplers(), static_cast<std::size_t>(expected));
}

TEST(CashRegisterTest, EmptyStreamIsZero) {
  CashRegisterOptions options;
  options.num_samplers_override = 8;
  const auto estimator = MakeEstimator(0.3, 0.2, 100, 2, options);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(CashRegisterTest, AdditiveGuaranteeOnFirehose) {
  // Theorem 14 (additive): |estimate - h*| <= eps * n w.p. 1 - delta.
  const double eps = 0.15;
  const double delta = 0.1;
  Rng rng(3);
  int failures = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    CascadeConfig config;
    config.num_tweets = 400;
    config.cascade_alpha = 1.1;
    config.max_retweets = 2000;
    config.mean_batch = 4.0;  // batched events; the sketch is linear
    const RetweetFirehose firehose = MakeRetweetFirehose(config, rng);

    auto estimator = MakeEstimator(eps, delta, config.num_tweets,
                                   static_cast<std::uint64_t>(t) + 10);
    UpdateInChunks(estimator, firehose.events);
    const double error = std::fabs(estimator.Estimate() -
                                   static_cast<double>(firehose.exact_h));
    if (error > eps * static_cast<double>(config.num_tweets)) ++failures;
  }
  EXPECT_LE(failures, 2);
}

TEST(CashRegisterTest, MultiplicativeGuaranteeWithLowerBound) {
  // Plant h* = 300 over a universe of 600 papers; with beta = 300 the
  // multiplicative regime applies.
  const double eps = 0.2;
  const double delta = 0.1;
  Rng rng(4);
  int failures = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    VectorSpec spec;
    spec.kind = VectorKind::kPlanted;
    spec.n = 300;
    spec.target_h = 150;
    const AggregateStream totals = MakeVector(spec, rng);
    // Batched events keep the test fast; the sketch is linear, so this is
    // equivalent to unit updates (see BatchedUpdatesEquivalentToUnits).
    const CashRegisterStream events =
        ExpandToBatchedCashRegister(totals, /*mean_batch=*/16.0, rng);

    CashRegisterOptions options;
    options.mode = CashRegisterMode::kMultiplicative;
    options.beta = 150.0;
    auto estimator = MakeEstimator(eps, delta, spec.n,
                                   static_cast<std::uint64_t>(t) + 77,
                                   options);
    UpdateInChunks(estimator, events);
    const double truth = 150.0;
    const double estimate = estimator.Estimate();
    if (estimate < (1.0 - 2.0 * eps) * truth ||
        estimate > (1.0 + 2.0 * eps) * truth) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 2);
}

TEST(CashRegisterTest, BatchedUpdatesEquivalentToUnits) {
  // The estimator is a linear sketch: (paper, +5) must equal five
  // (paper, +1) updates.
  CashRegisterOptions options;
  options.num_samplers_override = 16;
  auto batched = MakeEstimator(0.2, 0.1, 50, 5, options);
  auto units = MakeEstimator(0.2, 0.1, 50, 5, options);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t paper = rng.UniformU64(50);
    const std::int64_t delta = rng.UniformInt(1, 5);
    batched.Update(paper, delta);
    for (std::int64_t u = 0; u < delta; ++u) units.Update(paper, 1);
  }
  EXPECT_DOUBLE_EQ(batched.Estimate(), units.Estimate());
}

TEST(CashRegisterTest, MostSamplersSucceed) {
  CashRegisterOptions options;
  options.num_samplers_override = 32;
  auto estimator = MakeEstimator(0.2, 0.1, 1000, 7, options);
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    estimator.Update(rng.UniformU64(1000), 1);
  }
  (void)estimator.Estimate();
  EXPECT_GE(estimator.last_successful_samples(), 28u);
}

TEST(CashRegisterTest, DistinctEstimateTracksSupport) {
  CashRegisterOptions options;
  options.num_samplers_override = 4;
  auto estimator = MakeEstimator(0.1, 0.1, 10000, 9, options);
  for (std::uint64_t paper = 0; paper < 2000; ++paper) {
    estimator.Update(paper, 1 + static_cast<std::int64_t>(paper % 3));
  }
  EXPECT_NEAR(estimator.DistinctEstimate(), 2000.0, 2000.0 * 0.15);
}

// Property sweep: additive error bound across eps on a fixed mid-size
// stream (one seed per eps; generous slack of 1.5x the bound).
class CashRegisterAdditiveProperty
    : public ::testing::TestWithParam<double> {};

TEST_P(CashRegisterAdditiveProperty, ErrorWithinBound) {
  const double eps = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1000) + 11);
  VectorSpec spec;
  spec.kind = VectorKind::kZipf;
  spec.n = 300;
  spec.max_value = 1000;
  const AggregateStream totals = MakeVector(spec, rng);
  const CashRegisterStream events =
      ExpandToBatchedCashRegister(totals, /*mean_batch=*/8.0, rng);

  auto estimator = MakeEstimator(eps, 0.05, spec.n,
                                 static_cast<std::uint64_t>(eps * 100) + 31);
  UpdateInChunks(estimator, events);
  const double truth = static_cast<double>(ExactHIndex(totals));
  EXPECT_NEAR(estimator.Estimate(), truth,
              1.5 * eps * static_cast<double>(spec.n) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, CashRegisterAdditiveProperty,
                         ::testing::Values(0.15, 0.2, 0.35, 0.5));

}  // namespace
}  // namespace himpact
