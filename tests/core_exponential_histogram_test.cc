#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/exact.h"
#include "core/exponential_histogram.h"
#include "random/rng.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

ExponentialHistogramEstimator MakeEstimator(double eps, std::uint64_t max_h) {
  auto estimator = ExponentialHistogramEstimator::Create(eps, max_h);
  EXPECT_TRUE(estimator.ok());
  return std::move(estimator).value();
}

TEST(ExpHistogramTest, RejectsBadParameters) {
  EXPECT_FALSE(ExponentialHistogramEstimator::Create(0.0, 100).ok());
  EXPECT_FALSE(ExponentialHistogramEstimator::Create(1.0, 100).ok());
  EXPECT_FALSE(ExponentialHistogramEstimator::Create(-0.5, 100).ok());
  EXPECT_FALSE(ExponentialHistogramEstimator::Create(0.1, 0).ok());
  EXPECT_TRUE(ExponentialHistogramEstimator::Create(0.1, 1).ok());
}

TEST(ExpHistogramTest, EmptyStreamIsZero) {
  const auto estimator = MakeEstimator(0.1, 1000);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(ExpHistogramTest, ZerosOnlyIsZero) {
  auto estimator = MakeEstimator(0.1, 1000);
  for (int i = 0; i < 100; ++i) estimator.Add(0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(ExpHistogramTest, SingleElementIsOne) {
  auto estimator = MakeEstimator(0.1, 1000);
  estimator.Add(1000000);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 1.0);
}

TEST(ExpHistogramTest, CountersAreNested) {
  auto estimator = MakeEstimator(0.5, 100);
  for (const std::uint64_t v : {1, 2, 3, 10, 50}) estimator.Add(v);
  for (int i = 0; i + 1 < estimator.grid().num_levels(); ++i) {
    EXPECT_GE(estimator.Counter(i), estimator.Counter(i + 1));
  }
  EXPECT_EQ(estimator.Counter(0), 5u);  // all values >= 1
}

TEST(ExpHistogramTest, TheoremFiveGuaranteeDeterministic) {
  // (1-eps) h* <= estimate <= h* must hold on EVERY input and order —
  // the algorithm is deterministic.
  const double eps = 0.1;
  Rng rng(1);
  for (int trial = 0; trial < 40; ++trial) {
    VectorSpec spec;
    spec.kind = static_cast<VectorKind>(trial % 4);
    spec.n = 500 + rng.UniformU64(1500);
    spec.max_value = 1 + rng.UniformU64(5000);
    AggregateStream values = MakeVector(spec, rng);
    ApplyOrder(values, static_cast<OrderPolicy>(trial % 4), rng);

    auto estimator = MakeEstimator(eps, values.size());
    for (const std::uint64_t v : values) estimator.Add(v);
    const double truth = static_cast<double>(ExactHIndex(values));
    const double estimate = estimator.Estimate();
    EXPECT_LE(estimate, truth) << "trial " << trial;
    EXPECT_GE(estimate, (1.0 - eps) * truth - 1e-9) << "trial " << trial;
  }
}

TEST(ExpHistogramTest, SpaceMatchesGridSize) {
  const auto estimator = MakeEstimator(0.1, 1u << 20);
  // Number of counters = grid levels <= the theorem's 2/eps log n bound.
  EXPECT_LE(static_cast<double>(estimator.EstimateSpace().words),
            estimator.TheoreticalSpaceWords() + 2.0);
}

TEST(ExpHistogramTest, ValuesAboveMaxHStillCount) {
  // max_h bounds the H-index, not the element values.
  auto estimator = MakeEstimator(0.2, 10);
  for (int i = 0; i < 10; ++i) estimator.Add(1u << 30);
  const double estimate = estimator.Estimate();
  EXPECT_LE(estimate, 10.0);
  EXPECT_GE(estimate, 8.0);  // (1-eps) * 10
}

// Property sweep: the deterministic guarantee across eps and vector kinds.
struct GuaranteeCase {
  double eps;
  VectorKind kind;
  OrderPolicy order;
};

class ExpHistogramGuarantee
    : public ::testing::TestWithParam<
          std::tuple<double, VectorKind, OrderPolicy>> {};

TEST_P(ExpHistogramGuarantee, HoldsEverywhere) {
  const auto [eps, kind, order] = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1000) + static_cast<int>(kind));
  VectorSpec spec;
  spec.kind = kind;
  spec.n = 2000;
  spec.max_value = 3000;
  spec.target_h = 120;
  AggregateStream values = MakeVector(spec, rng);
  ApplyOrder(values, order, rng);

  auto estimator = MakeEstimator(eps, values.size());
  for (const std::uint64_t v : values) estimator.Add(v);
  const double truth = static_cast<double>(ExactHIndex(values));
  EXPECT_LE(estimator.Estimate(), truth);
  EXPECT_GE(estimator.Estimate(), (1.0 - eps) * truth - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExpHistogramGuarantee,
    ::testing::Combine(
        ::testing::Values(0.02, 0.1, 0.3, 0.7),
        ::testing::Values(VectorKind::kZipf, VectorKind::kUniform,
                          VectorKind::kConstant, VectorKind::kAllDistinct,
                          VectorKind::kPlanted),
        ::testing::Values(OrderPolicy::kAscending, OrderPolicy::kDescending,
                          OrderPolicy::kRandom)));

// The estimate as Estimate() computed it before the winning level was
// maintained incrementally: a suffix walk over the serialized buckets
// from the top guess down, accepting the first satisfied one.
double SuffixWalkEstimate(const ExponentialHistogramEstimator& estimator) {
  ByteWriter writer;
  estimator.SerializeTo(writer);
  const std::vector<std::uint8_t> bytes = writer.Take();
  ByteReader reader(bytes);
  std::uint64_t magic = 0;
  double eps = 0.0;
  std::uint64_t max_h = 0;
  std::uint64_t count = 0;
  EXPECT_TRUE(reader.U64(&magic) && reader.F64(&eps) && reader.U64(&max_h) &&
              reader.U64(&count));
  std::vector<std::uint64_t> bucket(count);
  for (std::uint64_t& b : bucket) EXPECT_TRUE(reader.U64(&b));
  const GeometricGrid& grid = estimator.grid();
  std::uint64_t suffix = 0;
  for (int i = grid.num_levels() - 1; i >= 0; --i) {
    suffix += bucket[static_cast<std::size_t>(i)];
    if (static_cast<double>(suffix) >= grid.Power(i)) return grid.Power(i);
  }
  return 0.0;
}

// A value that is 0 one time in twenty, above max_h one time in twenty,
// and otherwise uniform up to a spread that lets the H-index climb.
std::uint64_t DrawValue(Rng& rng, std::uint64_t max_h) {
  const std::uint64_t roll = rng.UniformU64(20);
  if (roll == 0) return 0;
  if (roll == 1) return max_h + 1 + rng.UniformU64(max_h + 1);
  return 1 + rng.UniformU64(std::min<std::uint64_t>(max_h, 3000));
}

class ExpHistogramCachedEstimate
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ExpHistogramCachedEstimate, EqualsTheSuffixWalkAfterEveryOperation) {
  const auto [eps, max_h] = GetParam();
  Rng rng(static_cast<std::uint64_t>(eps * 1000) + max_h);
  auto live = MakeEstimator(eps, max_h);
  auto side = MakeEstimator(eps, max_h);
  const auto cached = [](const ExponentialHistogramEstimator& e,
                         const char* op, int step) {
    const double want = SuffixWalkEstimate(e);
    if (e.Estimate() == want) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "after " << op << " at step " << step << ": Estimate() "
           << e.Estimate() << ", suffix walk " << want;
  };
  std::vector<std::uint64_t> batch;
  for (int step = 0; step < 2500; ++step) {
    const std::uint64_t roll = rng.UniformU64(100);
    if (roll < 70) {
      live.Add(DrawValue(rng, max_h));
      ASSERT_TRUE(cached(live, "Add", step));
    } else if (roll < 85) {
      batch.clear();
      const std::uint64_t n = rng.UniformU64(10);
      for (std::uint64_t i = 0; i < n; ++i) {
        batch.push_back(DrawValue(rng, max_h));
      }
      live.AddBatch(batch);
      ASSERT_TRUE(cached(live, "AddBatch", step));
    } else if (roll < 93) {
      // The side estimator grows on its own and is merged in now and
      // then, so merges see both an empty and a populated operand.
      side.Add(DrawValue(rng, max_h));
      ASSERT_TRUE(cached(side, "Add (side)", step));
      if (rng.UniformU64(4) == 0) {
        live.Merge(side);
        ASSERT_TRUE(cached(live, "Merge", step));
      }
    } else if (roll < 97) {
      ByteWriter writer;
      live.SerializeTo(writer);
      const std::vector<std::uint8_t> bytes = writer.Take();
      ByteReader reader(bytes);
      auto restored = ExponentialHistogramEstimator::DeserializeFrom(reader);
      ASSERT_TRUE(restored.ok());
      live = std::move(restored).value();
      ASSERT_TRUE(cached(live, "DeserializeFrom", step));
    } else {
      // A copy carries the cached fields and keeps climbing from them.
      ExponentialHistogramEstimator copy = live;
      ASSERT_TRUE(cached(copy, "copy", step));
      copy.Add(DrawValue(rng, max_h));
      ASSERT_TRUE(cached(copy, "Add (copy)", step));
      live = copy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsMaxH, ExpHistogramCachedEstimate,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.25, 0.5),
                       ::testing::Values(std::uint64_t{12},
                                         std::uint64_t{1} << 20)));

}  // namespace
}  // namespace himpact
