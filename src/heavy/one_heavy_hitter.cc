#include "heavy/one_heavy_hitter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace himpact {
namespace {

std::size_t SampleSize(const OneHeavyHitter::Options& options) {
  if (options.sample_size_override > 0) return options.sample_size_override;
  // s = 2 log(log(n) / delta) (Algorithm 7, step 1), floored at a small
  // constant so tiny configurations still have a usable sample.
  const double log_n =
      std::log2(static_cast<double>(std::max<std::uint64_t>(4, options.max_papers)));
  const double s = 2.0 * std::log2(std::max(2.0, log_n / options.delta));
  return static_cast<std::size_t>(std::max(8.0, std::ceil(s)));
}

}  // namespace

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
  return OneHeavyHitter(options);
}

OneHeavyHitter::OneHeavyHitter(const Options& options)
    : options_(options),
      sample_size_(SampleSize(options)),
      grid_(options.max_papers, options.eps) {
  bucket_.assign(static_cast<std::size_t>(grid_.num_levels()), 0);
  samples_.resize(bucket_.size());
}

void OneHeavyHitter::AddPaper(const PaperTuple& paper,
                              std::uint64_t priority) {
  AddAtLevel({priority, paper.paper, paper.authors}, LevelOf(paper.citations));
}

int OneHeavyHitter::LevelOf(std::uint64_t citations) const {
  // LevelFloor is -1 only below 1 and never passes the top level.
  return grid_.LevelFloor(static_cast<double>(citations));
}

void OneHeavyHitter::AddAtLevel(const SampledPaper& paper, int level) {
  ++num_papers_;
  if (level < 0) return;
  // The paper qualifies for every threshold up to `level`: bump the exact
  // bucket (counters are suffix sums, as in Algorithm 1) and offer the
  // paper to each qualifying threshold's sample, top down. Level i-1's
  // papers are a superset of level i's, so its admission bar is never
  // higher: once a level turns the paper away, every lower level would.
  ++bucket_[static_cast<std::size_t>(level)];
  for (int i = level; i >= 0; --i) {
    if (!samples_[static_cast<std::size_t>(i)].Offer(paper, sample_size_)) {
      break;
    }
  }
}

void OneHeavyHitter::Merge(const OneHeavyHitter& other) {
  HIMPACT_CHECK_MSG(
      options_.eps == other.options_.eps &&
          options_.delta == other.options_.delta &&
          options_.max_papers == other.options_.max_papers &&
          sample_size_ == other.sample_size_ &&
          bucket_.size() == other.bucket_.size(),
      "merging OneHeavyHitters with different parameters");
  num_papers_ += other.num_papers_;
  for (std::size_t i = 0; i < bucket_.size(); ++i) {
    bucket_[i] += other.bucket_[i];
    samples_[i].Merge(other.samples_[i], sample_size_);
  }
}

int OneHeavyHitter::WinningLevel() const {
  std::uint64_t suffix = 0;
  for (int i = grid_.num_levels() - 1; i >= 0; --i) {
    suffix += bucket_[static_cast<std::size_t>(i)];
    if (static_cast<double>(suffix) >= grid_.Power(i)) return i;
  }
  return -1;
}

double OneHeavyHitter::StreamHEstimate() const {
  const int level = WinningLevel();
  return level < 0 ? 0.0 : grid_.Power(level);
}

std::optional<OneHeavyHitterResult> OneHeavyHitter::Detect() const {
  const int level = WinningLevel();
  if (level < 0) return std::nullopt;
  const auto& sample = samples_[static_cast<std::size_t>(level)].entries();
  if (sample.empty()) return std::nullopt;

  // Majority-author test (Algorithm 7, step 10): some author must appear
  // in at least a (1-eps) fraction of the sampled papers.
  std::unordered_map<AuthorId, std::size_t> author_counts;
  for (const SampledPaper& paper : sample) {
    for (const AuthorId author : paper.authors) {
      ++author_counts[author];
    }
  }
  const double needed =
      (1.0 - options_.eps) * static_cast<double>(sample.size());
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
  return OneHeavyHitterResult{*best_author, grid_.Power(level)};
}

namespace {
// HIMPOHH2; HIMPOHH1 was the reservoir-sampling format of earlier builds.
constexpr std::uint64_t kOneHeavyHitterMagic = 0x48494d504f484832ULL;

void WriteSampledPaper(ByteWriter& writer,
                       const OneHeavyHitter::SampledPaper& paper) {
  writer.U64(paper.paper);
  writer.U64(static_cast<std::uint64_t>(paper.authors.size()));
  for (const AuthorId author : paper.authors) writer.U64(author);
}

Status ReadSampledPaper(ByteReader& reader, const TabulationHash& priority,
                        OneHeavyHitter::SampledPaper* paper) {
  std::uint64_t paper_id = 0;
  std::uint64_t num_authors = 0;
  if (!reader.U64(&paper_id) || !reader.U64(&num_authors)) {
    return Status::InvalidArgument("truncated sampled paper");
  }
  if (num_authors > static_cast<std::uint64_t>(kMaxAuthorsPerPaper)) {
    return Status::InvalidArgument("sampled paper has too many authors");
  }
  paper->priority = priority(paper_id);
  paper->paper = paper_id;
  paper->authors = AuthorList();
  for (std::uint64_t i = 0; i < num_authors; ++i) {
    std::uint64_t author = 0;
    if (!reader.U64(&author)) {
      return Status::InvalidArgument("truncated sampled paper");
    }
    paper->authors.PushBack(author);
  }
  return Status::OK();
}
}  // namespace

void OneHeavyHitter::SerializeTo(ByteWriter& writer) const {
  writer.U64(kOneHeavyHitterMagic);
  writer.F64(options_.eps);
  writer.F64(options_.delta);
  writer.U64(options_.max_papers);
  writer.U64(options_.sample_size_override);
  SerializeStateTo(writer);
}

StatusOr<OneHeavyHitter> OneHeavyHitter::DeserializeFrom(
    ByteReader& reader, const TabulationHash& priority) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kOneHeavyHitterMagic) {
    return Status::InvalidArgument("not a OneHeavyHitter checkpoint");
  }
  Options options;
  std::uint64_t sample_size_override = 0;
  if (!reader.F64(&options.eps) || !reader.F64(&options.delta) ||
      !reader.U64(&options.max_papers) || !reader.U64(&sample_size_override)) {
    return Status::InvalidArgument("truncated OneHeavyHitter checkpoint");
  }
  // A corrupt eps drives the grid's level count, and a corrupt override
  // bounds every sample's size; both must stay allocation-sane.
  if (!(options.eps > 1e-4) || !(options.eps < 1.0) ||
      !(options.delta > 1e-12) || !(options.delta < 1.0) ||
      options.max_papers < 2 ||
      sample_size_override > (std::uint64_t{1} << 24)) {
    return Status::InvalidArgument("corrupt OneHeavyHitter options");
  }
  options.sample_size_override =
      static_cast<std::size_t>(sample_size_override);
  StatusOr<OneHeavyHitter> detector = Create(options);
  if (!detector.ok()) return detector.status();
  const Status status = detector.value().DeserializeStateFrom(reader, priority);
  if (!status.ok()) return status;
  return detector;
}

void OneHeavyHitter::SerializeStateTo(ByteWriter& writer) const {
  writer.U64(num_papers_);
  writer.U64(bucket_.size());
  for (const std::uint64_t count : bucket_) writer.U64(count);
  writer.U64(samples_.size());
  for (const auto& sample : samples_) {
    sample.SerializeTo(writer, WriteSampledPaper);
  }
}

Status OneHeavyHitter::DeserializeStateFrom(ByteReader& reader,
                                            const TabulationHash& priority) {
  std::uint64_t num_papers = 0;
  std::uint64_t num_buckets = 0;
  if (!reader.U64(&num_papers) || !reader.U64(&num_buckets)) {
    return Status::InvalidArgument("truncated OneHeavyHitter state");
  }
  if (num_buckets != bucket_.size()) {
    return Status::InvalidArgument("OneHeavyHitter bucket-count mismatch");
  }
  std::vector<std::uint64_t> bucket;
  bucket.reserve(num_buckets);
  for (std::uint64_t i = 0; i < num_buckets; ++i) {
    std::uint64_t count = 0;
    if (!reader.U64(&count)) {
      return Status::InvalidArgument("truncated OneHeavyHitter state");
    }
    bucket.push_back(count);
  }
  std::uint64_t num_samples = 0;
  if (!reader.U64(&num_samples) || num_samples != samples_.size()) {
    return Status::InvalidArgument("OneHeavyHitter sample-count mismatch");
  }
  const auto read_entry = [&priority](ByteReader& r, SampledPaper* paper) {
    return ReadSampledPaper(r, priority, paper);
  };
  std::vector<BottomSample<SampledPaper>> samples;
  samples.reserve(num_samples);
  for (std::uint64_t i = 0; i < num_samples; ++i) {
    StatusOr<BottomSample<SampledPaper>> sample =
        BottomSample<SampledPaper>::DeserializeFrom(reader, sample_size_,
                                                    read_entry);
    if (!sample.ok()) return sample.status();
    samples.push_back(std::move(sample).value());
  }
  num_papers_ = num_papers;
  bucket_ = std::move(bucket);
  samples_ = std::move(samples);
  return Status::OK();
}

SpaceUsage OneHeavyHitter::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = bucket_.size();
  usage.bytes = sizeof(*this) + bucket_.capacity() * sizeof(std::uint64_t);
  for (const auto& sample : samples_) usage += sample.EstimateSpace();
  return usage;
}

}  // namespace himpact
