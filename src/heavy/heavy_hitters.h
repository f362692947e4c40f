#ifndef HIMPACT_HEAVY_HEAVY_HITTERS_H_
#define HIMPACT_HEAVY_HEAVY_HITTERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "hash/k_independent.h"
#include "hash/tabulation.h"
#include "heavy/one_heavy_hitter.h"
#include "stream/types.h"

/// \file
/// Algorithm 8 ("Heavy Hitters", Theorem 18): find every author whose
/// H-index is an eps-fraction of the stream's total H-impact
/// `h*(S) = sum_a h*(a)`, without tracking every author.
///
/// Authors are hashed by `x = log(1/(eps delta))` pairwise-independent
/// functions into `l = 2/eps^2` buckets; each of the `x*l` buckets runs a
/// 1-Heavy-Hitter detector (Algorithm 7) on the sub-stream of papers
/// hashed to it. With probability `1-delta`, each heavy author lands in
/// some bucket where the other authors contribute at most an eps-factor
/// of noise, so its bucket detector fires; detections are deduplicated by
/// author across the grid (median H-index estimate).
/// Every cell samples by one priority per paper, a seeded `TabulationHash`
/// of its id, so the grid is a pure function of its papers and seed: any
/// split of a stream into shards, in any order, merges to the same bytes.

namespace himpact {

/// One reported heavy hitter.
struct HeavyHitterReport {
  AuthorId author = 0;
  /// Median of the detecting buckets' H-index estimates.
  double h_estimate = 0.0;
  /// Number of (row, bucket) detectors that reported this author.
  int detections = 0;
};

/// The Algorithm 8 heavy-hitters sketch.
class HeavyHitters {
 public:
  /// Tuning knobs.
  struct Options {
    /// Heaviness threshold / approximation parameter.
    double eps = 0.25;
    /// Failure probability.
    double delta = 0.1;
    /// Upper bound on the number of papers (per-bucket histogram bound).
    std::uint64_t max_papers = 1u << 20;
    /// If positive, overrides the bucket count `l = 2/eps^2`.
    std::size_t num_buckets_override = 0;
    /// If positive, overrides the row count `x = log(1/(eps delta))`.
    std::size_t num_rows_override = 0;
    /// Options forwarded to every per-bucket detector; its eps/delta
    /// default to this sketch's.
    double detector_eps = 0.0;    // 0 -> use eps
    double detector_delta = 0.0;  // 0 -> use delta
  };

  /// Validates options and builds the sketch. Requires `0 < eps < 1`,
  /// `0 < delta < 1`, `max_papers >= 2`, the detectors' eps and delta in
  /// (0, 1), and `GeometricGridFits(max_papers, detector eps)`.
  static StatusOr<HeavyHitters> Create(const Options& options,
                                       std::uint64_t seed);

  /// Observes one paper tuple: hashed per author, per row.
  void AddPaper(const PaperTuple& paper);

  /// Batched `AddPaper`: works out every paper's level and every
  /// (row, author) cell first, then makes the offers with each cell's
  /// loads started a few offers ahead. The state does not depend on the
  /// order of the papers, so it equals `AddPaper` per paper.
  void AddPaperBatch(std::span<const PaperTuple> papers);

  /// Merges another sketch built with identical options *and seed* (the
  /// row hashes must map every author to the same cells, and the
  /// priority hash must rank every paper alike); each (row, bucket)
  /// detector is merged pairwise. The result is byte-identical to one
  /// sketch fed both shards' paper streams, so `Report()` /
  /// `ReportHeavy()` keep the Theorem 18 guarantee on the merged stream.
  void Merge(const HeavyHitters& other);

  /// Whether this sketch is what `Create(options, seed)` built, so that
  /// it merges with every such sketch.
  bool BuiltWith(const Options& options, std::uint64_t seed) const;

  /// Detected heavy-hitter *candidates*: every author some bucket's
  /// 1-HH detector fired on, deduplicated and sorted by descending
  /// H-index estimate, capped at `ceil(1/eps)` entries (there can be at
  /// most `1/eps` true heavy hitters). A bucket containing one small
  /// author is legitimately dominated by it, so candidates can include
  /// non-heavy authors; use `ReportHeavy()` for the Theorem 18 output.
  std::vector<HeavyHitterReport> Report() const;

  /// Estimates the stream's total H-impact `h*(S) = sum_a h*(a)` as the
  /// median over rows of the per-row sum of bucket H-index estimates.
  /// Accurate when authors are spread across buckets (the Theorem 18
  /// regime, `#heavy authors <= 1/eps << l` buckets); an *under*estimate
  /// when many small authors share buckets, since a bucket's combined
  /// H-index is below the sum of its authors'.
  double TotalImpactEstimate() const;

  /// The Theorem 18 output: candidates whose estimated H-index clears
  /// `threshold_scale * eps * TotalImpactEstimate()`. The default scale
  /// `(1-eps)/2` absorbs both the detector's one-sided (1-eps) error and
  /// the total-impact underestimate.
  std::vector<HeavyHitterReport> ReportHeavy(double threshold_scale) const;
  std::vector<HeavyHitterReport> ReportHeavy() const {
    return ReportHeavy((1.0 - options_.eps) / 2.0);
  }

  /// Estimates the L2 mass `||h||_2 = sqrt(sum_a h*(a)^2)` of the
  /// H-index vector (median over rows of the root-sum-of-squares of
  /// bucket estimates). Same accuracy regime as `TotalImpactEstimate()`.
  double TotalImpactL2Estimate() const;

  /// The paper's concluding "L2 heavy hitters" variation: candidates
  /// with `h(a) >= threshold_scale * eps * ||h||_2`. Because
  /// `||h||_2 <= ||h||_1`, L2-heaviness is a weaker bar than Theorem
  /// 18's L1 version — more users qualify, which is exactly why the
  /// paper flags it as the more permissive notion to pursue.
  std::vector<HeavyHitterReport> ReportL2Heavy(double threshold_scale) const;
  std::vector<HeavyHitterReport> ReportL2Heavy() const {
    return ReportL2Heavy((1.0 - options_.eps) / 2.0);
  }

  /// Number of hash rows `x`.
  std::size_t num_rows() const { return num_rows_; }

  /// Number of buckets per row `l`.
  std::size_t num_buckets() const { return num_buckets_; }

  /// Number of papers observed.
  std::uint64_t num_papers() const { return num_papers_; }

  /// Space across all cells and hash functions.
  SpaceUsage EstimateSpace() const;

  /// Appends a checkpoint (options + every cell detector's state). The
  /// hashes and cell structures are re-derived from the seed.
  void SerializeTo(ByteWriter& writer) const;

  /// Restores a sketch from a `SerializeTo` checkpoint. The reservoir
  /// format of earlier builds (`HIMPHHS1`) cannot be converted and is
  /// `kFailedPrecondition`; any other malformed input `kInvalidArgument`.
  static StatusOr<HeavyHitters> DeserializeFrom(ByteReader& reader);

 private:
  HeavyHitters(const Options& options, std::uint64_t seed);

  Options options_;
  std::uint64_t seed_;  // construction seed (checkpoint reconstruction)
  std::size_t num_rows_;
  std::size_t num_buckets_;
  std::uint64_t num_papers_ = 0;
  std::vector<PairwiseRangeHash> row_hashes_;
  TabulationHash priority_;  // paper id -> sampling priority
  std::vector<OneHeavyHitter> cells_;  // num_rows_ x num_buckets_
};

}  // namespace himpact

#endif  // HIMPACT_HEAVY_HEAVY_HITTERS_H_
