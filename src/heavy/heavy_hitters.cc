#include "heavy/heavy_hitters.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/check.h"
#include "common/math_util.h"
#include "hash/mix.h"

namespace himpact {
namespace {

std::size_t NumBuckets(const HeavyHitters::Options& options) {
  if (options.num_buckets_override > 0) return options.num_buckets_override;
  return static_cast<std::size_t>(
      std::ceil(2.0 / (options.eps * options.eps)));
}

std::size_t NumRows(const HeavyHitters::Options& options) {
  if (options.num_rows_override > 0) return options.num_rows_override;
  const double rows = std::log2(1.0 / (options.eps * options.delta));
  return static_cast<std::size_t>(std::max(1.0, std::ceil(rows)));
}

double DetectorEps(const HeavyHitters::Options& options) {
  return options.detector_eps > 0.0 ? options.detector_eps : options.eps;
}

double DetectorDelta(const HeavyHitters::Options& options) {
  return options.detector_delta > 0.0 ? options.detector_delta
                                      : options.delta;
}

OneHeavyHitterOptions DetectorOptions(const HeavyHitters::Options& options) {
  OneHeavyHitterOptions detector;
  detector.eps = DetectorEps(options);
  detector.delta = DetectorDelta(options);
  detector.max_papers = options.max_papers;
  return detector;
}

}  // namespace

StatusOr<HeavyHitters> HeavyHitters::Create(const Options& options,
                                            std::uint64_t seed) {
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (options.max_papers < 2) {
    return Status::InvalidArgument("max_papers must be >= 2");
  }
  const double detector_eps = DetectorEps(options);
  if (!(detector_eps > 0.0 && detector_eps < 1.0)) {
    return Status::InvalidArgument("detector_eps must be in (0, 1)");
  }
  const double detector_delta = DetectorDelta(options);
  if (!(detector_delta > 0.0 && detector_delta < 1.0)) {
    return Status::InvalidArgument("detector_delta must be in (0, 1)");
  }
  if (!GeometricGridFits(options.max_papers, detector_eps)) {
    return Status::InvalidArgument(
        "eps too small for max_papers: the detector grid would exceed " +
        std::to_string(kMaxGeometricLevels) + " levels");
  }
  return HeavyHitters(options, seed);
}

HeavyHitters::HeavyHitters(const Options& options, std::uint64_t seed)
    : options_(options),
      seed_(seed),
      num_rows_(NumRows(options)),
      num_buckets_(NumBuckets(options)),
      priority_(SplitMix64(seed ^ 0x589965cc75374cc3ULL)),
      shape_(DetectorOptions(options)),
      cells_(num_rows_ * num_buckets_, DetectorCell(shape_)) {
  std::uint64_t row_seed = SplitMix64(seed ^ 0xe7037ed1a0b428dbULL);
  row_hashes_.reserve(num_rows_);
  for (std::size_t j = 0; j < num_rows_; ++j) {
    row_seed = SplitMix64(row_seed);
    row_hashes_.emplace_back(num_buckets_, row_seed);
  }
}

void HeavyHitters::AddPaper(const PaperTuple& paper) {
  ++num_papers_;
  // Every cell has the same shape, so the paper's level and sample
  // entry are computed once and shared by all of them, as is its slot
  // in the table once a cell takes it.
  const int level = shape_.LevelOf(paper.citations);
  const SampledPaper sampled{priority_(paper.paper), paper.paper,
                             paper.authors};
  PaperTable::Slot slot = PaperTable::kNoSlot;
  for (std::size_t j = 0; j < num_rows_; ++j) {
    // One insertion per (row, author): an author's sub-stream inside its
    // bucket contains all of that author's papers (Algorithm 8, step 5).
    for (const AuthorId author : paper.authors) {
      const std::size_t bucket =
          static_cast<std::size_t>(row_hashes_[j](author));
      cells_[j * num_buckets_ + bucket].AddAtLevel(shape_, table_, sampled,
                                                   level, &slot);
    }
  }
}

void HeavyHitters::AddPaperBatch(std::span<const PaperTuple> papers) {
  // Work out every offer first: each paper's level and sample entry
  // once, and the cell of each (paper, row, author), in `AddPaper`'s
  // order. The offers then run with their cells' loads started ahead:
  // the cell 2 * kAhead offers on starts loading its fields, and the
  // one kAhead on, whose fields have arrived, its level's counter and
  // bar. A paper's offers are consecutive, so its slot, found by the
  // first cell that takes it, stays live through the rest of them.
  struct Offer {
    std::uint32_t cell;
    std::uint32_t paper;
  };
  thread_local std::vector<SampledPaper> sampled;
  thread_local std::vector<int> levels;
  thread_local std::vector<PaperTable::Slot> slots;
  thread_local std::vector<Offer> offers;
  sampled.clear();
  levels.clear();
  offers.clear();
  slots.assign(papers.size(), PaperTable::kNoSlot);
  for (const PaperTuple& paper : papers) {
    const auto index = static_cast<std::uint32_t>(sampled.size());
    sampled.push_back({priority_(paper.paper), paper.paper, paper.authors});
    levels.push_back(shape_.LevelOf(paper.citations));
    for (std::size_t j = 0; j < num_rows_; ++j) {
      for (const AuthorId author : paper.authors) {
        const std::size_t bucket =
            static_cast<std::size_t>(row_hashes_[j](author));
        offers.push_back(
            {static_cast<std::uint32_t>(j * num_buckets_ + bucket), index});
      }
    }
  }
  constexpr std::size_t kAhead = 8;
  const std::size_t n = offers.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (k + 2 * kAhead < n) cells_[offers[k + 2 * kAhead].cell].Prefetch();
    if (k + kAhead < n) {
      const Offer& ahead = offers[k + kAhead];
      cells_[ahead.cell].PrefetchLevel(levels[ahead.paper]);
    }
    const Offer& offer = offers[k];
    cells_[offer.cell].AddAtLevel(shape_, table_, sampled[offer.paper],
                                  levels[offer.paper], &slots[offer.paper]);
  }
  num_papers_ += papers.size();
}

bool HeavyHitters::BuiltWith(const Options& options,
                             std::uint64_t seed) const {
  return options_.eps == options.eps && options_.delta == options.delta &&
         options_.max_papers == options.max_papers &&
         options_.num_buckets_override == options.num_buckets_override &&
         options_.num_rows_override == options.num_rows_override &&
         options_.detector_eps == options.detector_eps &&
         options_.detector_delta == options.detector_delta && seed_ == seed;
}

void HeavyHitters::Merge(const HeavyHitters& other) {
  HIMPACT_CHECK_MSG(BuiltWith(other.options_, other.seed_),
                    "merging HeavyHitters with different parameters or seeds");
  num_papers_ += other.num_papers_;
  // Each of `other`'s tuples is looked up once, by the first cell that
  // keeps it.
  std::vector<PaperTable::Slot> adopted(other.table_.slot_limit(),
                                        PaperTable::kNoSlot);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cells_[c].Merge(shape_, table_, other.cells_[c], other.table_, adopted);
  }
}

std::vector<HeavyHitterReport> HeavyHitters::Report() const {
  // Collect detections per author across the grid.
  std::map<AuthorId, std::vector<double>> detections;
  for (const DetectorCell& cell : cells_) {
    const std::optional<OneHeavyHitterResult> result =
        cell.Detect(shape_, table_);
    if (result.has_value()) {
      detections[result->author].push_back(result->h_estimate);
    }
  }

  std::vector<HeavyHitterReport> reports;
  reports.reserve(detections.size());
  for (auto& [author, estimates] : detections) {
    std::sort(estimates.begin(), estimates.end());
    HeavyHitterReport report;
    report.author = author;
    report.h_estimate = estimates[estimates.size() / 2];
    report.detections = static_cast<int>(estimates.size());
    reports.push_back(report);
  }
  std::sort(reports.begin(), reports.end(),
            [](const HeavyHitterReport& a, const HeavyHitterReport& b) {
              return a.h_estimate > b.h_estimate ||
                     (a.h_estimate == b.h_estimate && a.author < b.author);
            });
  const std::size_t cap =
      static_cast<std::size_t>(std::ceil(1.0 / options_.eps));
  if (reports.size() > cap) reports.resize(cap);
  return reports;
}

double HeavyHitters::TotalImpactEstimate() const {
  std::vector<double> row_totals;
  row_totals.reserve(num_rows_);
  for (std::size_t j = 0; j < num_rows_; ++j) {
    double total = 0.0;
    for (std::size_t k = 0; k < num_buckets_; ++k) {
      total += cells_[j * num_buckets_ + k].StreamHEstimate(shape_);
    }
    row_totals.push_back(total);
  }
  std::sort(row_totals.begin(), row_totals.end());
  return row_totals.empty() ? 0.0 : row_totals[row_totals.size() / 2];
}

std::vector<HeavyHitterReport> HeavyHitters::ReportHeavy(
    double threshold_scale) const {
  const double threshold =
      threshold_scale * options_.eps * TotalImpactEstimate();
  std::vector<HeavyHitterReport> heavy;
  for (const HeavyHitterReport& report : Report()) {
    if (report.h_estimate >= threshold) heavy.push_back(report);
  }
  return heavy;
}

double HeavyHitters::TotalImpactL2Estimate() const {
  std::vector<double> row_norms;
  row_norms.reserve(num_rows_);
  for (std::size_t j = 0; j < num_rows_; ++j) {
    double sum_squares = 0.0;
    for (std::size_t k = 0; k < num_buckets_; ++k) {
      const double h = cells_[j * num_buckets_ + k].StreamHEstimate(shape_);
      sum_squares += h * h;
    }
    row_norms.push_back(std::sqrt(sum_squares));
  }
  std::sort(row_norms.begin(), row_norms.end());
  return row_norms.empty() ? 0.0 : row_norms[row_norms.size() / 2];
}

std::vector<HeavyHitterReport> HeavyHitters::ReportL2Heavy(
    double threshold_scale) const {
  const double threshold =
      threshold_scale * options_.eps * TotalImpactL2Estimate();
  std::vector<HeavyHitterReport> heavy;
  for (const HeavyHitterReport& report : Report()) {
    if (report.h_estimate >= threshold) heavy.push_back(report);
  }
  return heavy;
}

namespace {
// HIMPHHS3. HIMPHHS1 (reservoirs) and HIMPHHS2 (every cell's samples of
// whole tuples) are earlier builds' layouts.
constexpr std::uint64_t kHeavyHittersMagic = 0x48494d5048485333ULL;
}  // namespace

void HeavyHitters::SerializeTo(ByteWriter& writer) const {
  writer.U64(kHeavyHittersMagic);
  writer.F64(options_.eps);
  writer.F64(options_.delta);
  writer.U64(options_.max_papers);
  writer.U64(options_.num_buckets_override);
  writer.U64(options_.num_rows_override);
  writer.F64(options_.detector_eps);
  writer.F64(options_.detector_delta);
  writer.U64(seed_);
  writer.U64(num_papers_);
  writer.U64(cells_.size());
  WriteDetectorCells(writer, table_, cells_);
}

StatusOr<HeavyHitters> HeavyHitters::DeserializeFrom(ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic)) {
    return Status::InvalidArgument("not a HeavyHitters checkpoint");
  }
  // HIMPHHS1 (reservoirs) only ever sat inside earlier stripe files: no
  // build reads it from a grid file.
  if (magic >> 8 == kHeavyHittersMagic >> 8 &&
      ((magic & 0xff) == '1' || (magic & 0xff) == '2')) {
    return Status::FailedPrecondition(
        "heavy-hitters grid is in an earlier layout (HIMPHHS" +
        std::string(1, static_cast<char>(magic & 0xff)) +
        "), which this build does not read and no build converts; " +
        ((magic & 0xff) == '2'
             ? "serve the checkpoint with c7a62bd, the last build that "
               "reads it, or move it aside to start fresh"
             : "no build reads it from a grid file (c7a62bd reads only "
               "HIMPHHS2), so move the checkpoint aside to start fresh"));
  }
  if (magic != kHeavyHittersMagic) {
    return Status::InvalidArgument("not a HeavyHitters checkpoint");
  }
  Options options;
  std::uint64_t num_buckets_override = 0;
  std::uint64_t num_rows_override = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_papers = 0;
  std::uint64_t num_cells = 0;
  if (!reader.F64(&options.eps) || !reader.F64(&options.delta) ||
      !reader.U64(&options.max_papers) || !reader.U64(&num_buckets_override) ||
      !reader.U64(&num_rows_override) || !reader.F64(&options.detector_eps) ||
      !reader.F64(&options.detector_delta) || !reader.U64(&seed) ||
      !reader.U64(&num_papers) || !reader.U64(&num_cells)) {
    return Status::InvalidArgument("truncated HeavyHitters checkpoint");
  }
  // eps drives l = 2/eps^2 buckets, each holding a full detector; bound
  // everything allocation-relevant before the constructor runs.
  if (!(options.eps > 1e-3) || !(options.eps < 1.0) ||
      !(options.delta > 1e-12) || !(options.delta < 1.0) ||
      options.max_papers < 2 ||
      num_buckets_override > (std::uint64_t{1} << 20) ||
      num_rows_override > (std::uint64_t{1} << 10) ||
      (options.detector_eps != 0.0 &&
       (!(options.detector_eps > 1e-4) || !(options.detector_eps < 1.0))) ||
      (options.detector_delta != 0.0 &&
       (!(options.detector_delta > 1e-12) ||
        !(options.detector_delta < 1.0))) ||
      !GeometricGridFits(options.max_papers, DetectorEps(options))) {
    return Status::InvalidArgument("corrupt HeavyHitters options");
  }
  options.num_buckets_override =
      static_cast<std::size_t>(num_buckets_override);
  options.num_rows_override = static_cast<std::size_t>(num_rows_override);
  if (num_cells != NumRows(options) * NumBuckets(options)) {
    return Status::InvalidArgument("HeavyHitters cell-count mismatch");
  }
  // Each cell's level takes at least two bytes: its count and its sample
  // size.
  const auto levels = static_cast<std::uint64_t>(
      NumGeometricLevels(options.max_papers, DetectorEps(options)));
  if (num_cells * levels > reader.remaining() / 2) {
    return Status::InvalidArgument(
        "HeavyHitters checkpoint smaller than its declared geometry");
  }
  StatusOr<HeavyHitters> sketch = Create(options, seed);
  if (!sketch.ok()) return sketch.status();
  HeavyHitters& out = sketch.value();
  const Status status = ReadDetectorCells(reader, out.shape_, out.priority_,
                                          &out.table_, out.cells_);
  if (!status.ok()) return status;
  out.num_papers_ = num_papers;
  return sketch;
}

SpaceUsage HeavyHitters::EstimateSpace() const {
  SpaceUsage usage;
  for (const auto& hash : row_hashes_) usage += hash.EstimateSpace();
  // The priority table is inline, so sizeof(*this) counts its bytes.
  usage.words += priority_.EstimateSpace().words;
  usage += table_.EstimateSpace();
  for (const auto& cell : cells_) usage += cell.EstimateSpace();
  usage.bytes +=
      sizeof(*this) + shape_.grid.powers().capacity() * sizeof(double);
  return usage;
}

}  // namespace himpact
