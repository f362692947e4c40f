#include "heavy/one_heavy_hitter.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "hash/mix.h"

namespace himpact {
namespace {

using Ref = PaperTable::Ref;
using Slot = PaperTable::Slot;

std::size_t SampleSize(const OneHeavyHitter::Options& options) {
  if (options.sample_size_override > 0) return options.sample_size_override;
  // s = 2 log(log(n) / delta) (Algorithm 7, step 1), floored at a small
  // constant so tiny configurations still have a usable sample.
  const double log_n =
      std::log2(static_cast<double>(std::max<std::uint64_t>(4, options.max_papers)));
  const double s = 2.0 * std::log2(std::max(2.0, log_n / options.delta));
  return static_cast<std::size_t>(std::max(8.0, std::ceil(s)));
}

// `held <=> paper` in the samples' `(priority, paper, authors)` order;
// `slot` is the paper's slot in `table`, or kNoSlot. Priorities decide
// all but ties, which compare the tuples through the table.
std::strong_ordering Order(const PaperTable& table, const Ref& held,
                           const SampledPaper& paper, Slot slot) {
  if (held.priority != paper.priority) return held.priority <=> paper.priority;
  if (held.slot == slot) return std::strong_ordering::equal;
  return table[held.slot] <=> paper;
}

}  // namespace

// --- PaperTable --------------------------------------------------------------

std::uint64_t PaperTable::HashOf(const SampledPaper& paper) {
  // The priority is already a seeded hash of the id.
  std::uint64_t hash = paper.priority;
  for (const AuthorId author : paper.authors) hash = SplitMix64(hash ^ author);
  return hash;
}

std::size_t PaperTable::Probe(const SampledPaper& paper,
                              std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const Slot slot = index_[at];
    if (slot == kNoSlot || slots_[slot].paper == paper) return at;
  }
}

void PaperTable::GrowIndex() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(std::max<std::size_t>(16, 2 * old.size()), kNoSlot);
  for (const Slot slot : old) {
    if (slot == kNoSlot) continue;
    const SampledPaper& paper = slots_[slot].paper;
    index_[Probe(paper, HashOf(paper))] = slot;
  }
}

PaperTable::Slot PaperTable::Store(const SampledPaper& paper) {
  Slot slot;
  if (free_.empty()) {
    HIMPACT_CHECK_MSG(slots_.size() < kNoSlot, "paper table full");
    slot = static_cast<Slot>(slots_.size());
    slots_.push_back({paper, 0});
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = {paper, 0};
  }
  return slot;
}

PaperTable::Slot PaperTable::Acquire(const SampledPaper& paper) {
  if (2 * (size() + 1) > index_.size()) GrowIndex();
  const std::size_t at = Probe(paper, HashOf(paper));
  if (index_[at] == kNoSlot) index_[at] = Store(paper);
  AddRef(index_[at]);
  return index_[at];
}

PaperTable::Slot PaperTable::Append(const SampledPaper& paper) {
  if (2 * (size() + 1) > index_.size()) GrowIndex();
  const std::size_t at = Probe(paper, HashOf(paper));
  HIMPACT_CHECK(index_[at] == kNoSlot);
  index_[at] = Store(paper);
  return index_[at];
}

void PaperTable::Release(Slot slot) {
  --references_;
  if (--slots_[slot].refs > 0) return;
  // Backward-shift deletion: each later entry of the probe run that may
  // sit at the vacated position (its home is not cyclically after it)
  // moves back, so lookups need no tombstones.
  const std::size_t mask = index_.size() - 1;
  const SampledPaper& paper = slots_[slot].paper;
  std::size_t at = Probe(paper, HashOf(paper));
  for (std::size_t next = (at + 1) & mask; index_[next] != kNoSlot;
       next = (next + 1) & mask) {
    const std::size_t home = HashOf(slots_[index_[next]].paper) & mask;
    if (((next - home) & mask) >= ((next - at) & mask)) {
      index_[at] = index_[next];
      at = next;
    }
  }
  index_[at] = kNoSlot;
  free_.push_back(slot);
}

std::vector<PaperTable::Slot> PaperTable::SortedSlots() const {
  std::vector<Slot> sorted;
  sorted.reserve(size());
  for (const Slot slot : index_) {
    if (slot != kNoSlot) sorted.push_back(slot);
  }
  std::sort(sorted.begin(), sorted.end(), [this](Slot a, Slot b) {
    return slots_[a].paper < slots_[b].paper;
  });
  return sorted;
}

SpaceUsage PaperTable::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = size() * CeilDiv(sizeof(SampledPaper), sizeof(std::uint64_t));
  usage.bytes = sizeof(*this) + slots_.capacity() * sizeof(Stored) +
                (free_.capacity() + index_.capacity()) * sizeof(Slot);
  return usage;
}

// --- DetectorCell ------------------------------------------------------------

DetectorShape::DetectorShape(const OneHeavyHitterOptions& options)
    : eps(options.eps),
      sample_size(SampleSize(options)),
      grid(options.max_papers, options.eps) {}

DetectorCell::DetectorCell(const DetectorShape& shape)
    : levels_(shape.num_levels()), samples_(shape.num_levels()) {}

void DetectorCell::AddAtLevel(const DetectorShape& shape, PaperTable& table,
                              const SampledPaper& paper, int level,
                              Slot* slot) {
  if (level < 0) return;
  // The paper qualifies for every threshold up to `level`: bump the exact
  // bucket (counters are suffix sums, as in Algorithm 1) and offer the
  // paper to each qualifying threshold's sample, top down. Level i-1's
  // papers are a superset of level i's, so its admission bar is never
  // higher: once a level turns the paper away, every lower level would.
  // A priority above a level's bar is turned away without touching the
  // sample; an equal one still needs the full order, so it is offered.
  ++levels_[static_cast<std::size_t>(level)].count;
  const auto order = [&](const Ref& held) {
    return Order(table, held, paper, *slot);
  };
  for (std::size_t i = static_cast<std::size_t>(level) + 1; i-- > 0;) {
    if (levels_[i].bar < paper.priority) break;
    const std::optional<std::size_t> at =
        samples_[i].Place(shape.sample_size, order);
    if (!at.has_value()) break;
    if (*slot == PaperTable::kNoSlot) {
      *slot = table.Acquire(paper);
    } else {
      table.AddRef(*slot);
    }
    const std::optional<Ref> evicted =
        samples_[i].Insert(*at, {paper.priority, *slot}, shape.sample_size);
    if (evicted.has_value()) table.Release(evicted->slot);
    UpdateBar(shape, i);
  }
}

void DetectorCell::UpdateBar(const DetectorShape& shape, std::size_t i) {
  const std::vector<Ref>& entries = samples_[i].entries();
  levels_[i].bar = entries.size() >= shape.sample_size
                       ? entries.back().priority
                       : ~std::uint64_t{0};
}

void DetectorCell::Merge(const DetectorShape& shape, PaperTable& table,
                         const DetectorCell& other,
                         const PaperTable& other_table,
                         std::vector<Slot>& adopted) {
  const auto compare = [&](const Ref& mine, const Ref& theirs) {
    if (mine.priority != theirs.priority) {
      return mine.priority <=> theirs.priority;
    }
    return table[mine.slot] <=> other_table[theirs.slot];
  };
  const auto adopt = [&](const Ref& theirs) {
    Slot& slot = adopted[theirs.slot];
    if (slot == PaperTable::kNoSlot) {
      slot = table.Acquire(other_table[theirs.slot]);
    } else {
      table.AddRef(slot);
    }
    return Ref{theirs.priority, slot};
  };
  const auto drop = [&table](const Ref& mine) { table.Release(mine.slot); };
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].count += other.levels_[i].count;
    samples_[i].Merge(other.samples_[i], shape.sample_size, compare, adopt,
                      drop);
    UpdateBar(shape, i);
  }
}

int DetectorCell::WinningLevel(const DetectorShape& shape) const {
  std::uint64_t suffix = 0;
  for (int i = shape.grid.num_levels() - 1; i >= 0; --i) {
    suffix += levels_[static_cast<std::size_t>(i)].count;
    if (static_cast<double>(suffix) >= shape.grid.Power(i)) return i;
  }
  return -1;
}

double DetectorCell::StreamHEstimate(const DetectorShape& shape) const {
  const int level = WinningLevel(shape);
  return level < 0 ? 0.0 : shape.grid.Power(level);
}

std::optional<OneHeavyHitterResult> DetectorCell::Detect(
    const DetectorShape& shape, const PaperTable& table) const {
  const int level = WinningLevel(shape);
  if (level < 0) return std::nullopt;
  const std::vector<Ref>& sample =
      samples_[static_cast<std::size_t>(level)].entries();
  if (sample.empty()) return std::nullopt;

  // Majority-author test (Algorithm 7, step 10): some author must appear
  // in at least a (1-eps) fraction of the sampled papers.
  std::unordered_map<AuthorId, std::size_t> author_counts;
  for (const Ref& ref : sample) {
    for (const AuthorId author : table[ref.slot].authors) {
      ++author_counts[author];
    }
  }
  const double needed =
      (1.0 - shape.eps) * static_cast<double>(sample.size());
  const AuthorId* best_author = nullptr;
  std::size_t best_count = 0;
  for (const auto& [author, count] : author_counts) {
    if (count > best_count) {
      best_count = count;
      best_author = &author;
    }
  }
  if (best_author == nullptr ||
      static_cast<double>(best_count) < needed) {
    return std::nullopt;
  }
  return OneHeavyHitterResult{*best_author, shape.grid.Power(level)};
}

SpaceUsage DetectorCell::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = levels_.size();
  usage.bytes = sizeof(*this) + levels_.capacity() * sizeof(Level);
  for (const auto& sample : samples_) usage += sample.EstimateSpace();
  return usage;
}

// --- Codec -------------------------------------------------------------------

void WriteDetectorCells(ByteWriter& writer, const PaperTable& table,
                        std::span<const DetectorCell> cells) {
  const std::vector<Slot> sorted = table.SortedSlots();
  std::vector<std::uint64_t> index_of(table.slot_limit());
  writer.Varint(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    index_of[sorted[i]] = i;
    const SampledPaper& paper = table[sorted[i]];
    writer.Varint(paper.paper);
    writer.Varint(static_cast<std::uint64_t>(paper.authors.size()));
    for (const AuthorId author : paper.authors) writer.Varint(author);
  }
  // A sample is ascending in the table's order, so its indices are
  // strictly ascending: the first, then the gaps (each at least 1).
  for (const DetectorCell& cell : cells) {
    for (const DetectorCell::Level& level : cell.levels_) {
      writer.Varint(level.count);
    }
    for (const BottomSample<Ref>& sample : cell.samples_) {
      writer.Varint(sample.entries().size());
      std::uint64_t previous = 0;
      for (const Ref& ref : sample.entries()) {
        const std::uint64_t index = index_of[ref.slot];
        writer.Varint(&ref == sample.entries().data() ? index
                                                      : index - previous);
        previous = index;
      }
    }
  }
}

Status ReadDetectorCells(ByteReader& reader, const DetectorShape& shape,
                         const TabulationHash& priority, PaperTable* table,
                         std::span<DetectorCell> cells) {
  std::uint64_t num_papers = 0;
  if (!reader.Varint(&num_papers)) {
    return Status::InvalidArgument("truncated paper table");
  }
  // A tuple takes at least two bytes: its id and its author count.
  if (num_papers > reader.remaining() / 2) {
    return Status::InvalidArgument("paper table larger than the bytes left");
  }
  std::vector<Ref> refs;
  refs.reserve(static_cast<std::size_t>(num_papers));
  SampledPaper previous;
  for (std::uint64_t i = 0; i < num_papers; ++i) {
    SampledPaper paper;
    std::uint64_t num_authors = 0;
    if (!reader.Varint(&paper.paper) || !reader.Varint(&num_authors)) {
      return Status::InvalidArgument("truncated paper table");
    }
    if (num_authors > static_cast<std::uint64_t>(kMaxAuthorsPerPaper)) {
      return Status::InvalidArgument("sampled paper has too many authors");
    }
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      AuthorId author = 0;
      if (!reader.Varint(&author)) {
        return Status::InvalidArgument("truncated paper table");
      }
      paper.authors.PushBack(author);
    }
    paper.priority = priority(paper.paper);
    if (i > 0 && !(previous < paper)) {
      return Status::InvalidArgument(previous == paper
                                         ? "paper table repeats a tuple"
                                         : "paper table out of order");
    }
    refs.push_back({paper.priority, table->Append(paper)});
    previous = paper;
  }

  for (DetectorCell& cell : cells) {
    for (DetectorCell::Level& level : cell.levels_) {
      if (!reader.Varint(&level.count)) {
        return Status::InvalidArgument("truncated level counts");
      }
    }
    for (std::size_t i = 0; i < cell.samples_.size(); ++i) {
      std::uint64_t size = 0;
      if (!reader.Varint(&size)) {
        return Status::InvalidArgument("truncated bottom sample");
      }
      if (size > shape.sample_size) {
        return Status::InvalidArgument(
            "bottom sample larger than its capacity");
      }
      if (size > reader.remaining()) {
        return Status::InvalidArgument(
            "bottom sample larger than the bytes left");
      }
      std::vector<Ref> entries;
      entries.reserve(static_cast<std::size_t>(size));
      std::uint64_t index = 0;
      for (std::uint64_t e = 0; e < size; ++e) {
        std::uint64_t step = 0;
        if (!reader.Varint(&step)) {
          return Status::InvalidArgument("truncated bottom sample");
        }
        if (e > 0 && step == 0) {
          return Status::InvalidArgument(
              "bottom sample references not strictly ascending");
        }
        if (step >= num_papers - (e > 0 ? index : 0)) {
          return Status::InvalidArgument("reference out of the paper table");
        }
        index = e > 0 ? index + step : step;
        entries.push_back(refs[static_cast<std::size_t>(index)]);
        table->AddRef(entries.back().slot);
      }
      cell.samples_[i] = BottomSample<Ref>(std::move(entries));
      cell.UpdateBar(shape, i);
    }
  }
  for (const Ref& ref : refs) {
    if (table->refs(ref.slot) == 0) {
      return Status::InvalidArgument(
          "paper-table entry that no sample references");
    }
  }
  return Status::OK();
}

// --- OneHeavyHitter ----------------------------------------------------------

StatusOr<OneHeavyHitter> OneHeavyHitter::Create(const Options& options) {
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (options.max_papers < 2) {
    return Status::InvalidArgument("max_papers must be >= 2");
  }
  if (!GeometricGridFits(options.max_papers, options.eps)) {
    return Status::InvalidArgument(
        "eps too small for max_papers: the level grid would exceed " +
        std::to_string(kMaxGeometricLevels) + " levels");
  }
  return OneHeavyHitter(options);
}

OneHeavyHitter::OneHeavyHitter(const Options& options)
    : options_(options), shape_(options), cell_(shape_) {}

void OneHeavyHitter::AddPaper(const PaperTuple& paper,
                              std::uint64_t priority) {
  AddAtLevel({priority, paper.paper, paper.authors}, LevelOf(paper.citations));
}

void OneHeavyHitter::AddAtLevel(const SampledPaper& paper, int level) {
  ++num_papers_;
  Slot slot = PaperTable::kNoSlot;
  cell_.AddAtLevel(shape_, table_, paper, level, &slot);
}

void OneHeavyHitter::Merge(const OneHeavyHitter& other) {
  HIMPACT_CHECK_MSG(
      options_.eps == other.options_.eps &&
          options_.delta == other.options_.delta &&
          options_.max_papers == other.options_.max_papers &&
          shape_.sample_size == other.shape_.sample_size,
      "merging OneHeavyHitters with different parameters");
  num_papers_ += other.num_papers_;
  std::vector<Slot> adopted(other.table_.slot_limit(), PaperTable::kNoSlot);
  cell_.Merge(shape_, table_, other.cell_, other.table_, adopted);
}

namespace {
// HIMPOHH3; HIMPOHH1 (reservoirs) and HIMPOHH2 (bottom-s samples of
// whole tuples) are earlier builds' layouts.
constexpr std::uint64_t kOneHeavyHitterMagic = 0x48494d504f484833ULL;
}  // namespace

void OneHeavyHitter::SerializeTo(ByteWriter& writer) const {
  writer.U64(kOneHeavyHitterMagic);
  writer.F64(options_.eps);
  writer.F64(options_.delta);
  writer.U64(options_.max_papers);
  writer.U64(options_.sample_size_override);
  writer.U64(num_papers_);
  WriteDetectorCells(writer, table_, std::span(&cell_, 1));
}

StatusOr<OneHeavyHitter> OneHeavyHitter::DeserializeFrom(
    ByteReader& reader, const TabulationHash& priority) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic)) {
    return Status::InvalidArgument("not a OneHeavyHitter checkpoint");
  }
  if (magic >> 8 == kOneHeavyHitterMagic >> 8 &&
      ((magic & 0xff) == '1' || (magic & 0xff) == '2')) {
    return Status::FailedPrecondition(
        "OneHeavyHitter checkpoint is in an earlier layout (HIMPOHH" +
        std::string(1, static_cast<char>(magic & 0xff)) +
        "), which this build does not read");
  }
  if (magic != kOneHeavyHitterMagic) {
    return Status::InvalidArgument("not a OneHeavyHitter checkpoint");
  }
  Options options;
  std::uint64_t sample_size_override = 0;
  std::uint64_t num_papers = 0;
  if (!reader.F64(&options.eps) || !reader.F64(&options.delta) ||
      !reader.U64(&options.max_papers) || !reader.U64(&sample_size_override) ||
      !reader.U64(&num_papers)) {
    return Status::InvalidArgument("truncated OneHeavyHitter checkpoint");
  }
  // A corrupt eps drives the grid's level count, and a corrupt override
  // bounds every sample's size; both must stay allocation-sane.
  if (!(options.eps > 1e-4) || !(options.eps < 1.0) ||
      !(options.delta > 1e-12) || !(options.delta < 1.0) ||
      options.max_papers < 2 ||
      sample_size_override > (std::uint64_t{1} << 24) ||
      !GeometricGridFits(options.max_papers, options.eps)) {
    return Status::InvalidArgument("corrupt OneHeavyHitter options");
  }
  // Each level takes at least two bytes: its count and sample size.
  if (static_cast<std::uint64_t>(
          NumGeometricLevels(options.max_papers, options.eps)) >
      reader.remaining() / 2) {
    return Status::InvalidArgument(
        "OneHeavyHitter checkpoint smaller than its levels");
  }
  options.sample_size_override =
      static_cast<std::size_t>(sample_size_override);
  StatusOr<OneHeavyHitter> detector = Create(options);
  if (!detector.ok()) return detector.status();
  OneHeavyHitter& out = detector.value();
  const Status status =
      ReadDetectorCells(reader, out.shape_, priority, &out.table_,
                        std::span(&out.cell_, 1));
  if (!status.ok()) return status;
  out.num_papers_ = num_papers;
  return detector;
}

SpaceUsage OneHeavyHitter::EstimateSpace() const {
  SpaceUsage usage = cell_.EstimateSpace() + table_.EstimateSpace();
  usage.bytes += sizeof(*this) - sizeof(cell_) - sizeof(table_) +
                 shape_.grid.powers().capacity() * sizeof(double);
  return usage;
}

}  // namespace himpact
