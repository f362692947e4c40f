#ifndef HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_
#define HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/math_util.h"
#include "common/space.h"
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
/// Storage: the samples hold 16-byte `{priority, slot}` references into
/// a `PaperTable`, which stores each distinct sampled tuple once with a
/// reference count. Since every sample ranks papers by one priority, the
/// same few papers sit in nearly every level (and, in Algorithm 8, in
/// nearly every cell), so the table is far smaller than the samples. A
/// `DetectorCell` is one detector's counters and samples over a table
/// its owner passes in: Algorithm 8 keeps one table for its whole grid
/// of cells, and a standalone `OneHeavyHitter` is one cell with a table
/// of its own. Both checkpoint through `WriteDetectorCells`.

namespace himpact {

/// A detected dominant author and its H-index estimate.
struct OneHeavyHitterResult {
  AuthorId author = 0;
  double h_estimate = 0.0;
};

/// One sampled tuple, ordered by `(priority, paper, authors)`.
struct SampledPaper {
  std::uint64_t priority = 0;
  PaperId paper = 0;
  AuthorList authors;

  friend auto operator<=>(const SampledPaper&, const SampledPaper&) = default;
};

/// The distinct tuples some sample references, each stored once in a
/// slot with its reference count. A slot is freed when its last
/// reference is released and reused by a later tuple.
class PaperTable {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  /// A sample entry: the tuple's priority, kept inline so that most
  /// comparisons stay inside the sample, and its slot.
  struct Ref {
    std::uint64_t priority = 0;
    Slot slot = kNoSlot;
  };

  /// The tuple in a live slot.
  const SampledPaper& operator[](Slot slot) const {
    return slots_[slot].paper;
  }

  /// Takes one reference to `paper`, storing it first if the table does
  /// not hold it. Returns its slot.
  Slot Acquire(const SampledPaper& paper);

  /// Takes one more reference to a live slot.
  void AddRef(Slot slot) {
    ++slots_[slot].refs;
    ++references_;
  }

  /// Gives back one reference; the last one frees the slot.
  void Release(Slot slot);

  /// Stores `paper`, which the table must not hold, with no reference
  /// yet (a decoder's step: it adds the references it reads).
  Slot Append(const SampledPaper& paper);

  /// Number of distinct tuples stored.
  std::size_t size() const { return slots_.size() - free_.size(); }

  /// Number of references held, over all slots.
  std::uint64_t references() const { return references_; }

  /// One past the largest slot index in use so far.
  std::size_t slot_limit() const { return slots_.size(); }

  /// References held to `slot` (0 for a free slot).
  std::uint32_t refs(Slot slot) const { return slots_[slot].refs; }

  /// The live slots in `(priority, paper, authors)` order.
  std::vector<Slot> SortedSlots() const;

  /// Space: the slots, the free list and the index.
  SpaceUsage EstimateSpace() const;

 private:
  struct Stored {
    SampledPaper paper;
    std::uint32_t refs = 0;  // 0: the slot is free
  };

  static std::uint64_t HashOf(const SampledPaper& paper);
  // The index position holding `slot`, or of the empty position where a
  // tuple hashing to `hash` and equal to `paper` would go.
  std::size_t Probe(const SampledPaper& paper, std::uint64_t hash) const;
  void GrowIndex();
  Slot Store(const SampledPaper& paper);

  std::vector<Stored> slots_;
  std::vector<Slot> free_;
  // Open addressing with linear probing over the live slots, a power of
  // two at most half full; kNoSlot marks an empty position.
  std::vector<Slot> index_;
  std::uint64_t references_ = 0;
};

/// Options of an Algorithm 7 detector.
struct OneHeavyHitterOptions {
  /// Approximation / domination parameter.
  double eps = 0.1;
  /// Failure probability.
  double delta = 0.05;
  /// Upper bound on the number of papers (the histogram's `n`).
  std::uint64_t max_papers = 1u << 20;
  /// If positive, overrides the sample size `s`.
  std::size_t sample_size_override = 0;
};

/// What every detector built with one set of options shares: `eps`, the
/// sample size `s` and the level grid `(1+eps)^i`.
struct DetectorShape {
  /// Requires options `OneHeavyHitter::Create` accepts.
  explicit DetectorShape(const OneHeavyHitterOptions& options);

  /// The threshold level a paper with `citations` citations reaches: the
  /// greatest `i` with `(1+eps)^i <= citations`, clamped to the top
  /// level, or -1 for 0 citations.
  int LevelOf(std::uint64_t citations) const {
    // LevelFloor is -1 only below 1 and never passes the top level.
    return grid.LevelFloor(static_cast<double>(citations));
  }

  std::size_t num_levels() const {
    return static_cast<std::size_t>(grid.num_levels());
  }

  double eps;
  std::size_t sample_size;
  GeometricGrid grid;
};

/// One detector's own state: per level, the exact-level paper count and
/// the bottom-s sample of references into a table its owner keeps. Every
/// call takes the shape the cell was built with and that table.
class DetectorCell {
 public:
  using Ref = PaperTable::Ref;
  using Slot = PaperTable::Slot;

  explicit DetectorCell(const DetectorShape& shape);

  /// Algorithm 7's per-paper step: unless `level` (from `LevelOf`) is
  /// -1, bumps that level's counter and offers `paper` to every
  /// threshold's sample up to it. `*slot` is the paper's slot in `table`,
  /// or `kNoSlot` until a sample takes the paper, which stores it and
  /// sets `*slot`, so the cells one paper reaches share one lookup.
  void AddAtLevel(const DetectorShape& shape, PaperTable& table,
                  const SampledPaper& paper, int level, Slot* slot);

  /// Starts loading the fields `AddAtLevel` reads to find a level's
  /// state.
  void Prefetch() const {
    __builtin_prefetch(&levels_);
    __builtin_prefetch(&samples_);
  }

  /// Starts loading what `AddAtLevel` reads first at `level`: its
  /// counter and admission bar.
  void PrefetchLevel(int level) const {
    if (level < 0) return;
    __builtin_prefetch(&levels_[static_cast<std::size_t>(level)]);
  }

  /// Merges `other`, whose references point into `other_table`: the
  /// counters add and each threshold's sample becomes the bottom-s of the
  /// union. `adopted` maps `other_table`'s slots to `table`'s (kNoSlot
  /// until adopted, sized `other_table.slot_limit()`); reuse it across
  /// the cells of one merge.
  void Merge(const DetectorShape& shape, PaperTable& table,
             const DetectorCell& other, const PaperTable& other_table,
             std::vector<Slot>& adopted);

  /// Algorithm 7's end-of-stream test (see `OneHeavyHitter::Detect`).
  std::optional<OneHeavyHitterResult> Detect(const DetectorShape& shape,
                                             const PaperTable& table) const;

  /// The histogram's H-index estimate of the cell's stream.
  double StreamHEstimate(const DetectorShape& shape) const;

  /// Space: the level counters and bars and the references held.
  SpaceUsage EstimateSpace() const;

 private:
  friend void WriteDetectorCells(ByteWriter&, const PaperTable&,
                                 std::span<const DetectorCell>);
  friend Status ReadDetectorCells(ByteReader&, const DetectorShape&,
                                  const TabulationHash&, PaperTable*,
                                  std::span<DetectorCell>);

  struct Level {
    std::uint64_t count = 0;  // exact-level papers (suffix sums = c_i)
    // The admission bar: the priority of the full sample's largest
    // entry, all ones while the sample has room. A paper whose priority
    // is above it cannot enter, which `AddAtLevel` decides without
    // reading the sample. Derived from the sample (set on every taken
    // offer, rebuilt after a merge or decode), never serialized.
    std::uint64_t bar = ~std::uint64_t{0};
  };

  int WinningLevel(const DetectorShape& shape) const;
  void UpdateBar(const DetectorShape& shape, std::size_t i);

  std::vector<Level> levels_;
  // One sample per threshold: the bottom-s of the papers whose count
  // reached (1+eps)^i.
  std::vector<BottomSample<Ref>> samples_;
};

/// Appends `table` and `cells` (every reference `table` holds is one of
/// theirs): the table's tuples in `(priority, paper, authors)` order as
/// varints (paper id, author count, authors), then each cell's level
/// counts and its samples, each a size and delta-varint table indices.
/// Priorities are not written: a decoder recomputes them from the ids.
void WriteDetectorCells(ByteWriter& writer, const PaperTable& table,
                        std::span<const DetectorCell> cells);

/// Restores what `WriteDetectorCells` wrote into `*table` (empty) and
/// `cells` (fresh, built with `shape`), whose papers were prioritized by
/// `priority`. Rejects, as `kInvalidArgument`, a table out of order or
/// with a repeated tuple or an entry no sample references, a reference
/// out of range, references not strictly ascending within a sample or
/// more than `s` of them, and counts larger than the bytes left.
Status ReadDetectorCells(ByteReader& reader, const DetectorShape& shape,
                         const TabulationHash& priority, PaperTable* table,
                         std::span<DetectorCell> cells);

/// The Algorithm 7 detector: one cell with a table of its own.
class OneHeavyHitter {
 public:
  using Options = OneHeavyHitterOptions;

  /// Validates options and builds a detector. Requires `0 < eps < 1`,
  /// `0 < delta < 1`, `max_papers >= 2` and
  /// `GeometricGridFits(max_papers, eps)`.
  static StatusOr<OneHeavyHitter> Create(const Options& options);

  /// Observes one paper tuple whose sampling priority is `priority`
  /// (the caller's seeded hash of `paper.paper`; every paper of one
  /// stream must be hashed by the same function). Shorthand for
  /// `AddAtLevel({priority, paper.paper, paper.authors},
  /// LevelOf(paper.citations))`.
  void AddPaper(const PaperTuple& paper, std::uint64_t priority);

  /// The threshold level a paper with `citations` citations reaches (see
  /// `DetectorShape::LevelOf`).
  int LevelOf(std::uint64_t citations) const {
    return shape_.LevelOf(citations);
  }

  /// Counts the paper and makes the cell's per-paper step.
  void AddAtLevel(const SampledPaper& paper, int level);

  /// Merges another detector built with identical options whose papers
  /// were prioritized by the same hash. The histogram counters add and
  /// each threshold's sample becomes the bottom-s of the union, so the
  /// result is byte-identical to one detector fed both streams.
  void Merge(const OneHeavyHitter& other);

  /// Runs the end-of-stream test: the dominant author and the stream's
  /// H-index estimate, or `nullopt` (the paper's FAIL) if no author
  /// covers a `(1-eps)` fraction of the winning threshold's sample.
  std::optional<OneHeavyHitterResult> Detect() const {
    return cell_.Detect(shape_, table_);
  }

  /// The histogram's H-index estimate of the whole (bucket) stream,
  /// regardless of whether one author dominates.
  double StreamHEstimate() const { return cell_.StreamHEstimate(shape_); }

  /// Number of papers observed.
  std::uint64_t num_papers() const { return num_papers_; }

  /// The per-threshold sample size `s`.
  std::size_t sample_size() const { return shape_.sample_size; }

  /// Space: counters, references and the table.
  SpaceUsage EstimateSpace() const;

  /// Appends a checkpoint: options, paper count, then
  /// `WriteDetectorCells`.
  void SerializeTo(ByteWriter& writer) const;

  /// Restores a detector from a `SerializeTo` checkpoint whose papers
  /// were prioritized by `priority`. An earlier build's layout
  /// (`HIMPOHH1`, `HIMPOHH2`) is `kFailedPrecondition`.
  static StatusOr<OneHeavyHitter> DeserializeFrom(
      ByteReader& reader, const TabulationHash& priority);

 private:
  explicit OneHeavyHitter(const Options& options);

  Options options_;
  DetectorShape shape_;
  std::uint64_t num_papers_ = 0;
  PaperTable table_;
  DetectorCell cell_;
};

}  // namespace himpact

#endif  // HIMPACT_HEAVY_ONE_HEAVY_HITTER_H_
