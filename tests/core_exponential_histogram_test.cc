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

// --- sparse form ------------------------------------------------------------

std::vector<std::uint8_t> DenseBytes(const ExponentialHistogramEstimator& e) {
  ByteWriter writer;
  e.SerializeTo(writer);
  return writer.Take();
}

std::vector<std::uint8_t> SparseBytes(const ExponentialHistogramEstimator& e) {
  ByteWriter writer;
  e.SerializeSparseTo(writer);
  return writer.Take();
}

// The sparse round trip rebuilds `e` exactly: the same dense bytes, the
// same estimate and the same counter at every level.
::testing::AssertionResult SparseRoundTrips(
    const ExponentialHistogramEstimator& e, double eps, std::uint64_t max_h) {
  const std::vector<std::uint8_t> sparse = SparseBytes(e);
  ByteReader reader(sparse);
  auto restored =
      ExponentialHistogramEstimator::DeserializeSparseFrom(reader, eps, max_h);
  if (!restored.ok()) {
    return ::testing::AssertionFailure() << restored.status().message();
  }
  if (!reader.AtEnd()) {
    return ::testing::AssertionFailure() << "unread sparse bytes";
  }
  if (DenseBytes(restored.value()) != DenseBytes(e)) {
    return ::testing::AssertionFailure() << "dense bytes differ";
  }
  if (restored.value().Estimate() != e.Estimate()) {
    return ::testing::AssertionFailure()
           << "estimate " << restored.value().Estimate() << " vs "
           << e.Estimate();
  }
  for (int i = 0; i < e.grid().num_levels(); ++i) {
    if (restored.value().Counter(i) != e.Counter(i)) {
      return ::testing::AssertionFailure() << "counter " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class ExpHistogramSparse
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ExpHistogramSparse, RoundTripsSeededStreams) {
  const auto [eps, max_h] = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto estimator = MakeEstimator(eps, max_h);
    const std::uint64_t n = rng.UniformU64(400);
    for (std::uint64_t i = 0; i < n; ++i) {
      estimator.Add(DrawValue(rng, max_h));
    }
    EXPECT_TRUE(SparseRoundTrips(estimator, eps, max_h)) << "seed " << seed;
  }
}

TEST_P(ExpHistogramSparse, RoundTripsValuesOnBucketEdges) {
  const auto [eps, max_h] = GetParam();
  auto estimator = MakeEstimator(eps, max_h);
  // Each guess (1+eps)^i rounded down, at, and just past its edge.
  for (int i = 0; i < estimator.grid().num_levels(); ++i) {
    const auto edge = static_cast<std::uint64_t>(estimator.grid().Power(i));
    for (const std::uint64_t v : {edge - 1, edge, edge + 1}) estimator.Add(v);
  }
  EXPECT_TRUE(SparseRoundTrips(estimator, eps, max_h));
}

TEST_P(ExpHistogramSparse, RoundTripsEmptyAndSingleBucketSketches) {
  const auto [eps, max_h] = GetParam();
  auto estimator = MakeEstimator(eps, max_h);
  EXPECT_TRUE(SparseRoundTrips(estimator, eps, max_h));
  EXPECT_EQ(SparseBytes(estimator), std::vector<std::uint8_t>{0});
  estimator.Add(1);  // level 0: a first gap of 0
  EXPECT_TRUE(SparseRoundTrips(estimator, eps, max_h));
  auto top = MakeEstimator(eps, max_h);
  for (int i = 0; i < 3; ++i) top.Add(max_h + 7);  // the top level only
  EXPECT_TRUE(SparseRoundTrips(top, eps, max_h));
}

TEST_P(ExpHistogramSparse, RoundTripsCountsPastTwoToThe35) {
  const auto [eps, max_h] = GetParam();
  auto estimator = MakeEstimator(eps, max_h);
  for (const std::uint64_t v : {1, 2, 3, 5, 8, 13, 400}) estimator.Add(v);
  // Merging a sketch into itself doubles every bucket.
  for (int i = 0; i < 36; ++i) estimator.Merge(estimator);
  ASSERT_GE(estimator.Counter(0), std::uint64_t{1} << 35);
  EXPECT_TRUE(SparseRoundTrips(estimator, eps, max_h));
}

INSTANTIATE_TEST_SUITE_P(
    EpsMaxH, ExpHistogramSparse,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.5),
                       ::testing::Values(std::uint64_t{12},
                                         std::uint64_t{1} << 20)));

TEST(ExpHistogramSparseTest, IsSmallerThanTheDenseForm) {
  auto estimator = MakeEstimator(0.1, 1u << 20);
  for (std::uint64_t v = 1; v <= 80; ++v) estimator.Add(v);
  EXPECT_LT(SparseBytes(estimator).size() * 10, DenseBytes(estimator).size());
}

// Writes `fields` as varints.
std::vector<std::uint8_t> Varints(std::initializer_list<std::uint64_t> fields) {
  ByteWriter writer;
  for (const std::uint64_t field : fields) writer.Varint(field);
  return writer.Take();
}

StatusCode SparseDecodeCode(const std::vector<std::uint8_t>& bytes,
                            double eps = 0.1, std::uint64_t max_h = 1000) {
  ByteReader reader(bytes);
  return ExponentialHistogramEstimator::DeserializeSparseFrom(reader, eps,
                                                              max_h)
      .status()
      .code();
}

TEST(ExpHistogramSparseTest, RejectsEveryMalformedForm) {
  auto estimator = MakeEstimator(0.1, 1000);
  const int levels = estimator.grid().num_levels();
  const auto top = static_cast<std::uint64_t>(levels - 1);
  for (const std::uint64_t v : {1, 30, 30, 200, 999}) estimator.Add(v);
  for (int i = 0; i < 20; ++i) estimator.Merge(estimator);  // long counts
  const std::vector<std::uint8_t> valid = SparseBytes(estimator);
  ASSERT_EQ(SparseDecodeCode(valid), StatusCode::kOk);

  // Truncation at every offset.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_EQ(SparseDecodeCode({valid.begin(), valid.begin() + cut}),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  const std::vector<std::vector<std::uint8_t>> malformed = {
      {0x81, 0x00, 0x00, 0x01},  // overlong: 1 written in two bytes
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},  // > 64 bits
      Varints({2, 3, 1, 0, 1}),                          // zero gap after the first
      Varints({1, top + 1, 1}),                          // gap past the last level
      Varints({2, top, 1, 1, 1}),                        // second bucket past it
      Varints({1, 0, 0}),                                // zero count
      Varints({static_cast<std::uint64_t>(levels) + 1}),  // more buckets than levels
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_EQ(SparseDecodeCode(malformed[i]), StatusCode::kInvalidArgument)
        << "case " << i;
  }
  // Parameters Create rejects.
  EXPECT_EQ(SparseDecodeCode(Varints({0}), 0.0), StatusCode::kInvalidArgument);
  EXPECT_EQ(SparseDecodeCode(Varints({0}), 0.1, 0),
            StatusCode::kInvalidArgument);

  // The top level itself is in range, and the form is a chained
  // sub-decoder: it stops after its own bytes and leaves trailing ones
  // for its caller (a segment record rejects them).
  std::vector<std::uint8_t> trailing = Varints({1, top, 1});
  trailing.push_back(0x07);
  ByteReader reader(trailing);
  ASSERT_TRUE(
      ExponentialHistogramEstimator::DeserializeSparseFrom(reader, 0.1, 1000)
          .ok());
  EXPECT_EQ(reader.remaining(), 1u);
}

}  // namespace
}  // namespace himpact
