#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/sliding_window_hindex.h"
#include "random/rng.h"
#include "workload/citation_vectors.h"

namespace himpact {
namespace {

// Exact reference: H-index of the last `window` values.
class ExactWindowedH {
 public:
  explicit ExactWindowedH(std::uint64_t window) : window_(window) {}
  void Add(std::uint64_t value) {
    values_.push_front(value);
    if (values_.size() > window_) values_.pop_back();
  }
  std::uint64_t HIndex() const {
    return ExactHIndex(std::vector<std::uint64_t>(values_.begin(),
                                                  values_.end()));
  }

 private:
  std::uint64_t window_;
  std::deque<std::uint64_t> values_;
};

TEST(SlidingWindowHTest, RejectsBadParameters) {
  EXPECT_FALSE(SlidingWindowHIndex::Create(0.0, 100).ok());
  EXPECT_FALSE(SlidingWindowHIndex::Create(1.0, 100).ok());
  EXPECT_FALSE(SlidingWindowHIndex::Create(0.1, 0).ok());
  EXPECT_FALSE(SlidingWindowHIndex::Create(1e-300, 100).ok());  // 1 + eps == 1
}

TEST(SlidingWindowHTest, EmptyIsZero) {
  const auto estimator = SlidingWindowHIndex::Create(0.1, 100).value();
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(SlidingWindowHTest, OldImpactExpires) {
  // A brilliant early career followed by a long dry spell: the windowed
  // H-index must fall back to (near) zero.
  auto estimator = SlidingWindowHIndex::Create(0.1, 200).value();
  for (int i = 0; i < 200; ++i) estimator.Add(1000);
  EXPECT_GE(estimator.Estimate(), 150.0);
  for (int i = 0; i < 400; ++i) estimator.Add(0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

TEST(SlidingWindowHTest, StableStreamMatchesWholeStreamH) {
  // With a stationary stream the windowed and whole-stream H-index of
  // the window agree.
  auto estimator = SlidingWindowHIndex::Create(0.15, 500).value();
  ExactWindowedH exact(500);
  Rng rng(1);
  VectorSpec spec;
  spec.kind = VectorKind::kZipf;
  spec.n = 3000;
  spec.max_value = 5000;
  const AggregateStream values = MakeVector(spec, rng);
  for (const std::uint64_t v : values) {
    estimator.Add(v);
    exact.Add(v);
  }
  const double truth = static_cast<double>(exact.HIndex());
  EXPECT_NEAR(estimator.Estimate(), truth, 0.2 * truth + 1.0);
}

// Property sweep: continuous tracking within a relaxed (two-sided) eps
// band across distributions.
class SlidingWindowProperty
    : public ::testing::TestWithParam<std::tuple<double, VectorKind>> {};

TEST_P(SlidingWindowProperty, TracksExactWindowedH) {
  const auto [eps, kind] = GetParam();
  const std::uint64_t window = 400;
  auto estimator = SlidingWindowHIndex::Create(eps, window).value();
  ExactWindowedH exact(window);
  Rng rng(static_cast<std::uint64_t>(eps * 100) + static_cast<int>(kind));
  VectorSpec spec;
  spec.kind = kind;
  spec.n = 2000;
  spec.max_value = 2000;
  const AggregateStream values = MakeVector(spec, rng);
  int checks = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    estimator.Add(values[i]);
    exact.Add(values[i]);
    if (i % 200 == 199) {
      ++checks;
      const double truth = static_cast<double>(exact.HIndex());
      // Two-sided band: grid rounding plus DGIM counting error.
      EXPECT_LE(estimator.Estimate(), (1.0 + eps) * truth + 1.0)
          << "position " << i;
      EXPECT_GE(estimator.Estimate(), (1.0 - 1.5 * eps) * truth - 1.0)
          << "position " << i;
    }
  }
  EXPECT_GE(checks, 9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlidingWindowProperty,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.3),
                       ::testing::Values(VectorKind::kZipf,
                                         VectorKind::kUniform,
                                         VectorKind::kAllDistinct)));

TEST(SlidingWindowHTest, SpaceSublinearInWindow) {
  // Space is polylog in the window (levels x DGIM buckets); the constant
  // is sizable, so the win shows at larger windows.
  auto estimator = SlidingWindowHIndex::Create(0.2, 1u << 18).value();
  Rng rng(2);
  for (int i = 0; i < (1 << 18); ++i) {
    estimator.Add(rng.UniformU64(1u << 18));
  }
  // Well below the 2^18 words a buffered window would need.
  EXPECT_LT(estimator.EstimateSpace().words, (1u << 18) / 4);
}

}  // namespace
}  // namespace himpact
