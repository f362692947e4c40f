#ifndef HIMPACT_CORE_EXPONENTIAL_HISTOGRAM_H_
#define HIMPACT_CORE_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/math_util.h"
#include "common/status.h"
#include "core/estimator.h"

/// \file
/// Algorithm 1 ("Exponential Histogram", Theorem 5): for every guess
/// `(1+eps)^i` of the H-index, count the stream elements that are
/// `>= (1+eps)^i`; report the greatest guess whose counter reached it.
///
/// Deterministic, one pass, `2/eps * log n` words, and
/// `(1-eps) h* <= h <= h*` on adversarially ordered aggregate streams.

namespace himpact {

/// Deterministic `(1-eps)`-approximate H-index over an aggregate stream.
class ExponentialHistogramEstimator final : public AggregateHIndexEstimator {
 public:
  /// Validates parameters and builds the estimator.
  ///
  /// `max_h` is the trivial upper bound for the H-index (the paper uses
  /// the vector dimension `n`); guesses cover `[1, max_h]`.
  /// Requires `0 < eps < 1` and `max_h >= 1`.
  static StatusOr<ExponentialHistogramEstimator> Create(double eps,
                                                        std::uint64_t max_h);

  /// Observes one publication's response count.
  ///
  /// Implementation note: Algorithm 1 increments every counter with
  /// threshold `<= value`; because the counters are nested
  /// (`c_i >= c_{i+1}`), we store per-level bucket counts (`c_i` is the
  /// suffix sum from level `i`) and maintain the winning level
  /// incrementally. The counters only grow, so the winning level only
  /// rises: an update costs one O(log levels) grid search plus an
  /// amortized O(1) climb, and `Estimate()` is O(1).
  void Add(std::uint64_t value) override;

  /// Batched `Add`: identical final state to calling `Add` per element
  /// (the buckets are order-invariant sums), with the grid lookup inlined
  /// and hoisted out of the per-event virtual dispatch. Zero allocations.
  void AddBatch(std::span<const std::uint64_t> values);

  /// The greatest guess `(1+eps)^i` with `c_i >= (1+eps)^i` (0 if none).
  double Estimate() const override;

  /// Space: the counters plus the grid bookkeeping.
  SpaceUsage EstimateSpace() const override;

  /// The value the paper's space theorem predicts (`2/eps * log2(max_h)`
  /// words), for the T1 experiment's "bound vs measured" columns.
  double TheoreticalSpaceWords() const;

  /// The counter value `c_i` (number of elements >= `(1+eps)^i`).
  std::uint64_t Counter(int level) const;

  /// Merges another estimator built with identical `(eps, max_h)` into
  /// this one; afterwards this estimator reflects the concatenation of
  /// both streams (the counters are plain sums, so sharded streams can
  /// be estimated distributedly). Requires identical construction
  /// parameters.
  void Merge(const ExponentialHistogramEstimator& other);

  /// Appends a checkpoint of parameters and counters to `writer`.
  void SerializeTo(ByteWriter& writer) const;

  /// Restores an estimator from a `SerializeTo` checkpoint. Rejects
  /// truncated or foreign buffers with `kInvalidArgument`.
  static StatusOr<ExponentialHistogramEstimator> DeserializeFrom(
      ByteReader& reader);

  /// Appends the counters in sparse form, all varints: the number of
  /// nonzero buckets, then per bucket (level gap, count), lowest level
  /// first. The first gap is that bucket's level, every later gap is
  /// >= 1. A stream of m values fills at most m of the `2/eps log max_h`
  /// buckets, so this is a few bytes per distinct level instead of 8 per
  /// level. The parameters are not written: the reader supplies them.
  void SerializeSparseTo(ByteWriter& writer) const;

  /// Restores an estimator built with `(eps, max_h)` from a
  /// `SerializeSparseTo` form. Rejects, with `kInvalidArgument`, a
  /// truncated or non-canonical varint, more nonzero buckets than
  /// levels, a zero gap after the first bucket, a level past the last
  /// one, a zero count, and parameters `Create` rejects.
  static StatusOr<ExponentialHistogramEstimator> DeserializeSparseFrom(
      ByteReader& reader, double eps, std::uint64_t max_h);

  /// The guess grid in use.
  const GeometricGrid& grid() const { return grid_; }

 private:
  ExponentialHistogramEstimator(double eps, std::uint64_t max_h);

  /// Advances `winning_level_` while the next guess is satisfied.
  void Climb();
  /// Rebuilds `winning_level_` and `above_winning_` from `bucket_`.
  void RecomputeWinningLevel();

  double eps_;
  std::uint64_t max_h_;
  GeometricGrid grid_;
  // bucket_[i] = #elements whose floor grid level is exactly i;
  // c_i = sum of bucket_[i..].
  std::vector<std::uint64_t> bucket_;
  // Derived from bucket_ (never serialized): the winning level w, the
  // greatest i with c_i >= (1+eps)^i (-1 if none), and c_{w+1}.
  int winning_level_ = -1;
  std::uint64_t above_winning_ = 0;
};

}  // namespace himpact

#endif  // HIMPACT_CORE_EXPONENTIAL_HISTOGRAM_H_
