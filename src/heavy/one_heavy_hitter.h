#ifndef HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_
#define HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/math_util.h"
#include "common/status.h"
#include "hash/tabulation.h"
#include "sketch/bottom_sample.h"
#include "stream/types.h"

/// \file
/// Algorithm 7 ("1-Heavy Hitter", Theorem 17): given a stream of papers
/// with authors and citation counts, decide whether a *single* author
/// dominates the stream's H-impact — i.e. whether some author `a` has
/// `h(a) >= (1-eps) h*(S)` where `h*(S)` sums the H-indices of all
/// authors in the stream.
///
/// The detector runs Algorithm 1's exponential histogram over the papers
/// and, per threshold `(1+eps)^i`, keeps a uniform sample `T_i` of
/// `s = 2 log(log(n)/delta)` qualifying papers. At the end the winning
/// threshold's sample is examined: if a `(1-eps)` fraction of its papers
/// share an author, that author (with the histogram's H-index estimate)
/// is returned; otherwise the stream is declared noisy.
///
/// Each `T_i` is a bottom-s sample (`sketch/bottom_sample.h`) ordered by
/// `(priority, paper id, author list)`; the priority is the caller's
/// seeded hash of the paper id. Duplicates: the sample is a set of
/// `(paper id, author list)` entries, so a retried paper never takes two
/// slots, and two author lists under one id are two entries (they tie on
/// priority, then order by id and author list). The detector draws no
/// randomness: its state is a pure function of the papers it saw.
///
/// Algorithm 8 instantiates one detector per hash bucket and owns the
/// priority hash they share.

namespace himpact {

/// A detected dominant author and its H-index estimate.
struct OneHeavyHitterResult {
  AuthorId author = 0;
  double h_estimate = 0.0;
};

/// The Algorithm 7 detector.
class OneHeavyHitter {
 public:
  /// Tuning knobs.
  struct Options {
    /// Approximation / domination parameter.
    double eps = 0.1;
    /// Failure probability.
    double delta = 0.05;
    /// Upper bound on the number of papers (the histogram's `n`).
    std::uint64_t max_papers = 1u << 20;
    /// If positive, overrides the sample size `s`.
    std::size_t sample_size_override = 0;
  };

  /// Validates options and builds a detector. Requires `0 < eps < 1`,
  /// `0 < delta < 1`, `max_papers >= 2`.
  static StatusOr<OneHeavyHitter> Create(const Options& options);

  /// One sample entry, ordered by `(priority, paper, authors)` (public so
  /// the checkpoint codec and Algorithm 8 can name it).
  struct SampledPaper {
    std::uint64_t priority = 0;
    PaperId paper = 0;
    AuthorList authors;

    friend auto operator<=>(const SampledPaper&,
                            const SampledPaper&) = default;
  };

  /// Observes one paper tuple whose sampling priority is `priority`
  /// (the caller's seeded hash of `paper.paper`; every paper of one
  /// stream must be hashed by the same function). Shorthand for
  /// `AddAtLevel({priority, paper.paper, paper.authors},
  /// LevelOf(paper.citations))`.
  void AddPaper(const PaperTuple& paper, std::uint64_t priority);

  /// The threshold level a paper with `citations` citations reaches: the
  /// greatest `i` with `(1+eps)^i <= citations`, clamped to the top
  /// level, or -1 for 0 citations. It depends only on the options, so
  /// Algorithm 8 computes it once per paper for all of its cells.
  int LevelOf(std::uint64_t citations) const;

  /// The per-paper step: counts the paper, and unless `level` (from
  /// `LevelOf`) is -1 bumps that level's counter and offers `paper` to
  /// every threshold's sample up to it.
  void AddAtLevel(const SampledPaper& paper, int level);

  /// Merges another detector built with identical options whose papers
  /// were prioritized by the same hash. The histogram counters add and
  /// each threshold's sample becomes the bottom-s of the union, so the
  /// result is byte-identical to one detector fed both streams.
  void Merge(const OneHeavyHitter& other);

  /// Runs the end-of-stream test: the dominant author and the stream's
  /// H-index estimate, or `nullopt` (the paper's FAIL) if no author
  /// covers a `(1-eps)` fraction of the winning threshold's sample.
  std::optional<OneHeavyHitterResult> Detect() const;

  /// The histogram's H-index estimate of the whole (bucket) stream,
  /// regardless of whether one author dominates.
  double StreamHEstimate() const;

  /// Number of papers observed.
  std::uint64_t num_papers() const { return num_papers_; }

  /// The per-threshold sample size `s`.
  std::size_t sample_size() const { return sample_size_; }

  /// Space: counters plus the sampled entries held.
  SpaceUsage EstimateSpace() const;

  /// Appends a checkpoint (options + counters + samples). Priorities are
  /// not written: a decoder recomputes them from the paper ids.
  void SerializeTo(ByteWriter& writer) const;

  /// Restores a detector from a `SerializeTo` checkpoint whose papers
  /// were prioritized by `priority`.
  static StatusOr<OneHeavyHitter> DeserializeFrom(
      ByteReader& reader, const TabulationHash& priority);

  /// Appends only the mutable state; `HeavyHitters` re-derives its cell
  /// detectors from its own options and checkpoints just this.
  void SerializeStateTo(ByteWriter& writer) const;

  /// Restores the state written by `SerializeStateTo` into this detector,
  /// built with the same options. Each sample must hold at most `s`
  /// entries of at most `kMaxAuthorsPerPaper` authors, strictly ascending
  /// under the priorities `priority` recomputes from the ids.
  Status DeserializeStateFrom(ByteReader& reader,
                              const TabulationHash& priority);

 private:
  explicit OneHeavyHitter(const Options& options);

  /// Index of the winning level (-1 if no level qualifies).
  int WinningLevel() const;

  Options options_;
  std::size_t sample_size_;
  GeometricGrid grid_;
  std::uint64_t num_papers_ = 0;
  std::vector<std::uint64_t> bucket_;  // exact-level counts (suffix = c_i)
  // One sample per threshold: the bottom-s of the papers whose count
  // reached (1+eps)^i.
  std::vector<BottomSample<SampledPaper>> samples_;
};

}  // namespace himpact

#endif  // HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_
