#include "core/exponential_histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace himpact {
namespace {

constexpr std::uint64_t kExpHistogramMagic = 0x48494d5045585031ULL;  // HIMPEXP1

}  // namespace

StatusOr<ExponentialHistogramEstimator> ExponentialHistogramEstimator::Create(
    double eps, std::uint64_t max_h) {
  if (!(eps > 0.0 && eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (max_h < 1) {
    return Status::InvalidArgument("max_h must be >= 1");
  }
  // A stored eps and max_h reach here from checkpoints and segment
  // records; bound the grid before building it.
  if (!GeometricGridFits(max_h, eps)) {
    return Status::InvalidArgument("eps too small for max_h");
  }
  return ExponentialHistogramEstimator(eps, max_h);
}

ExponentialHistogramEstimator::ExponentialHistogramEstimator(
    double eps, std::uint64_t max_h)
    : eps_(eps), max_h_(max_h), grid_(max_h, eps) {
  bucket_.assign(static_cast<std::size_t>(grid_.num_levels()), 0);
}

void ExponentialHistogramEstimator::Add(std::uint64_t value) {
  if (value == 0) return;  // contributes to no guess
  int level = grid_.LevelFloor(static_cast<double>(value));
  HIMPACT_DCHECK(level >= 0);
  // Values above the grid cap still count toward every guess.
  if (level >= grid_.num_levels()) level = grid_.num_levels() - 1;
  ++bucket_[static_cast<std::size_t>(level)];
  // Only counters above the winning level can let it rise.
  if (level > winning_level_) {
    ++above_winning_;
    Climb();
  }
}

void ExponentialHistogramEstimator::Climb() {
  // c_i >= (1+eps)^i holds on a prefix of the levels (c_i falls and the
  // guess rises with i), so the winning level is the prefix's end. Each
  // step moves one level's bucket from c_{w+1} down into the prefix.
  const int top = grid_.num_levels() - 1;
  while (winning_level_ < top &&
         static_cast<double>(above_winning_) >=
             grid_.Power(winning_level_ + 1)) {
    ++winning_level_;
    above_winning_ -= bucket_[static_cast<std::size_t>(winning_level_)];
  }
}

void ExponentialHistogramEstimator::RecomputeWinningLevel() {
  winning_level_ = -1;
  above_winning_ = 0;
  for (const std::uint64_t count : bucket_) above_winning_ += count;
  Climb();
}

void ExponentialHistogramEstimator::AddBatch(
    std::span<const std::uint64_t> values) {
  // Hoist the grid into locals and run a branchless last-power-<=x
  // search (conditional moves instead of the data-dependent branches of
  // GeometricGrid::LevelFloor, which mispredict ~50% on shuffled
  // values), four values interleaved so the independent searches
  // pipeline. The search window narrows on the same halving schedule
  // for every value, so one loop drives all four lanes. A zero value
  // resolves to lane level 0 and is excluded by its 0/1 increment —
  // bucket counters are sums, so the final state is byte-identical to
  // the scalar sequence.
  const double* const powers = grid_.powers().data();
  const std::size_t levels = static_cast<std::size_t>(grid_.num_levels());
  std::uint64_t* const buckets = bucket_.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double x0 = static_cast<double>(values[i]);
    const double x1 = static_cast<double>(values[i + 1]);
    const double x2 = static_cast<double>(values[i + 2]);
    const double x3 = static_cast<double>(values[i + 3]);
    std::size_t b0 = 0;
    std::size_t b1 = 0;
    std::size_t b2 = 0;
    std::size_t b3 = 0;
    std::size_t len = levels;
    while (len > 1) {
      const std::size_t half = len >> 1;
      b0 += powers[b0 + half] <= x0 ? half : 0;
      b1 += powers[b1 + half] <= x1 ? half : 0;
      b2 += powers[b2 + half] <= x2 ? half : 0;
      b3 += powers[b3 + half] <= x3 ? half : 0;
      len -= half;
    }
    // powers[0] = 1, so any value >= 1 lands on a valid level and
    // values above the grid cap clamp to the top level, like Add().
    buckets[b0] += values[i] != 0;
    buckets[b1] += values[i + 1] != 0;
    buckets[b2] += values[i + 2] != 0;
    buckets[b3] += values[i + 3] != 0;
  }
  for (; i < n; ++i) {
    const double x = static_cast<double>(values[i]);
    std::size_t b = 0;
    std::size_t len = levels;
    while (len > 1) {
      const std::size_t half = len >> 1;
      b += powers[b + half] <= x ? half : 0;
      len -= half;
    }
    buckets[b] += values[i] != 0;
  }
  RecomputeWinningLevel();
}

double ExponentialHistogramEstimator::Estimate() const {
  return winning_level_ < 0 ? 0.0 : grid_.Power(winning_level_);
}

SpaceUsage ExponentialHistogramEstimator::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = bucket_.size();
  usage.bytes = sizeof(*this) +
                bucket_.capacity() * sizeof(std::uint64_t) +
                grid_.powers().capacity() * sizeof(double);
  return usage;
}

double ExponentialHistogramEstimator::TheoreticalSpaceWords() const {
  return 2.0 / eps_ *
         std::log2(static_cast<double>(std::max<std::uint64_t>(2, max_h_)));
}

void ExponentialHistogramEstimator::SerializeTo(ByteWriter& writer) const {
  writer.U64(kExpHistogramMagic);
  writer.F64(eps_);
  writer.U64(max_h_);
  writer.U64(bucket_.size());
  for (const std::uint64_t count : bucket_) writer.U64(count);
}

StatusOr<ExponentialHistogramEstimator>
ExponentialHistogramEstimator::DeserializeFrom(ByteReader& reader) {
  std::uint64_t magic = 0;
  double eps = 0.0;
  std::uint64_t max_h = 0;
  std::uint64_t count = 0;
  if (!reader.U64(&magic) || magic != kExpHistogramMagic) {
    return Status::InvalidArgument("not an ExponentialHistogram checkpoint");
  }
  if (!reader.F64(&eps) || !reader.U64(&max_h) || !reader.U64(&count)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  // Bound the stored sketch before its grid is built: a crafted eps
  // that fits the level cap still sizes up to 2^20 levels, so the
  // counters it declares must be the grid's and must all be present.
  if (max_h < 1 || !GeometricGridFits(max_h, eps)) {
    return Status::InvalidArgument("bad checkpoint eps or max_h");
  }
  if (count != static_cast<std::uint64_t>(NumGeometricLevels(max_h, eps))) {
    return Status::InvalidArgument("checkpoint counter count mismatch");
  }
  if (count > reader.remaining() / sizeof(std::uint64_t)) {
    return Status::InvalidArgument("truncated checkpoint counters");
  }
  StatusOr<ExponentialHistogramEstimator> estimator = Create(eps, max_h);
  if (!estimator.ok()) return estimator.status();
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.U64(&estimator.value().bucket_[i])) {
      return Status::InvalidArgument("truncated checkpoint counters");
    }
  }
  estimator.value().RecomputeWinningLevel();
  return estimator;
}

void ExponentialHistogramEstimator::SerializeSparseTo(
    ByteWriter& writer) const {
  writer.Varint(static_cast<std::uint64_t>(
      bucket_.size() - std::count(bucket_.begin(), bucket_.end(), 0u)));
  std::size_t previous = 0;  // the first gap counts from level 0
  for (std::size_t level = 0; level < bucket_.size(); ++level) {
    if (bucket_[level] == 0) continue;
    writer.Varint(level - previous);
    writer.Varint(bucket_[level]);
    previous = level;
  }
}

StatusOr<ExponentialHistogramEstimator>
ExponentialHistogramEstimator::DeserializeSparseFrom(ByteReader& reader,
                                                     double eps,
                                                     std::uint64_t max_h) {
  StatusOr<ExponentialHistogramEstimator> estimator = Create(eps, max_h);
  if (!estimator.ok()) return estimator.status();
  std::vector<std::uint64_t>& bucket = estimator.value().bucket_;
  std::uint64_t nonzero = 0;
  if (!reader.Varint(&nonzero)) {
    return Status::InvalidArgument("truncated sparse bucket count");
  }
  if (nonzero > bucket.size()) {
    return Status::InvalidArgument("more sparse buckets than levels");
  }
  std::uint64_t level = 0;
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    std::uint64_t gap = 0;
    std::uint64_t count = 0;
    if (!reader.Varint(&gap) || !reader.Varint(&count)) {
      return Status::InvalidArgument("truncated sparse bucket");
    }
    if (i > 0 && gap == 0) {
      return Status::InvalidArgument("sparse buckets out of order");
    }
    if (gap >= bucket.size() - level) {
      return Status::InvalidArgument("sparse bucket past the last level");
    }
    if (count == 0) return Status::InvalidArgument("zero sparse bucket");
    level += gap;
    bucket[static_cast<std::size_t>(level)] = count;
  }
  estimator.value().RecomputeWinningLevel();
  return estimator;
}

void ExponentialHistogramEstimator::Merge(
    const ExponentialHistogramEstimator& other) {
  HIMPACT_CHECK_MSG(eps_ == other.eps_ && max_h_ == other.max_h_,
                    "merging estimators with different parameters");
  for (std::size_t i = 0; i < bucket_.size(); ++i) {
    bucket_[i] += other.bucket_[i];
  }
  RecomputeWinningLevel();
}

std::uint64_t ExponentialHistogramEstimator::Counter(int level) const {
  HIMPACT_CHECK(level >= 0 && level < grid_.num_levels());
  std::uint64_t suffix = 0;
  for (int i = grid_.num_levels() - 1; i >= level; --i) {
    suffix += bucket_[static_cast<std::size_t>(i)];
  }
  return suffix;
}

}  // namespace himpact
