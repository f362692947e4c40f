#include "heavy/cash_register_heavy.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/math_util.h"
#include "hash/mix.h"

namespace himpact {
namespace {

std::size_t NumBuckets(const CashRegisterHeavyHitters::Options& options) {
  if (options.num_buckets_override > 0) return options.num_buckets_override;
  return static_cast<std::size_t>(
      std::ceil(2.0 / (options.eps * options.eps)));
}

std::size_t NumRows(const CashRegisterHeavyHitters::Options& options) {
  if (options.num_rows_override > 0) return options.num_rows_override;
  const double rows = std::log2(1.0 / (options.eps * options.delta));
  return static_cast<std::size_t>(std::max(1.0, std::ceil(rows)));
}

}  // namespace

CashRegisterHeavyHitters::Cell::Cell(const Options& options,
                                     std::uint64_t seed)
    : distinct(std::min(options.eps, 0.5), options.delta,
               SplitMix64(seed ^ 0x3c6ef372fe94f82bULL)) {
  std::uint64_t sampler_seed = SplitMix64(seed ^ 0xbb67ae8584caa73bULL);
  value_samplers.reserve(options.samplers_per_cell);
  author_samplers.reserve(options.samplers_per_cell);
  for (std::size_t i = 0; i < options.samplers_per_cell; ++i) {
    sampler_seed = SplitMix64(sampler_seed);
    // Identical seeds: the twin subsamples and decodes the same papers,
    // so a successful value sample always has a matching author sample.
    value_samplers.emplace_back(options.universe, options.sampler_delta,
                                sampler_seed);
    author_samplers.emplace_back(options.universe, options.sampler_delta,
                                 sampler_seed);
  }
}

void CashRegisterHeavyHitters::Cell::Update(PaperId paper, AuthorId author,
                                            std::int64_t delta) {
  for (std::size_t i = 0; i < value_samplers.size(); ++i) {
    value_samplers[i].Update(paper, delta);
    author_samplers[i].Update(
        paper, delta * static_cast<std::int64_t>(author + 1));
  }
  distinct.Add(paper);
}

SpaceUsage CashRegisterHeavyHitters::Cell::EstimateSpace() const {
  SpaceUsage usage = distinct.EstimateSpace();
  for (const L0Sampler& sampler : value_samplers) {
    usage += sampler.EstimateSpace();
  }
  for (const L0Sampler& sampler : author_samplers) {
    usage += sampler.EstimateSpace();
  }
  return usage;
}

StatusOr<CashRegisterHeavyHitters> CashRegisterHeavyHitters::Create(
    const Options& options, std::uint64_t seed) {
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (options.universe < 1) {
    return Status::InvalidArgument("universe must be >= 1");
  }
  if (!GeometricGridFits(options.universe, options.eps)) {
    return Status::InvalidArgument("eps too small for universe");
  }
  if (options.samplers_per_cell < 1) {
    return Status::InvalidArgument("samplers_per_cell must be >= 1");
  }
  if (!(options.sampler_delta > 0.0 && options.sampler_delta < 1.0)) {
    return Status::InvalidArgument("sampler_delta must be in (0, 1)");
  }
  return CashRegisterHeavyHitters(options, seed);
}

CashRegisterHeavyHitters::CashRegisterHeavyHitters(const Options& options,
                                                   std::uint64_t seed)
    : options_(options),
      num_rows_(NumRows(options)),
      num_buckets_(NumBuckets(options)) {
  std::uint64_t row_seed = SplitMix64(seed ^ 0xa54ff53a5f1d36f1ULL);
  row_hashes_.reserve(num_rows_);
  for (std::size_t j = 0; j < num_rows_; ++j) {
    row_seed = SplitMix64(row_seed);
    row_hashes_.emplace_back(num_buckets_, row_seed);
  }
  std::uint64_t cell_seed = SplitMix64(seed ^ 0x510e527fade682d1ULL);
  cells_.reserve(num_rows_ * num_buckets_);
  for (std::size_t c = 0; c < num_rows_ * num_buckets_; ++c) {
    cell_seed = SplitMix64(cell_seed);
    cells_.emplace_back(options, cell_seed);
  }
}

void CashRegisterHeavyHitters::Update(PaperId paper,
                                      const AuthorList& authors,
                                      std::int64_t delta) {
  HIMPACT_CHECK(paper < options_.universe);
  HIMPACT_CHECK(delta > 0);
  HIMPACT_CHECK(!authors.empty());
  ++num_updates_;
  for (std::size_t j = 0; j < num_rows_; ++j) {
    for (const AuthorId author : authors) {
      const std::size_t bucket =
          static_cast<std::size_t>(row_hashes_[j](author));
      cells_[j * num_buckets_ + bucket].Update(paper, author, delta);
    }
  }
}

CashRegisterHeavyHitters::CellDetection CashRegisterHeavyHitters::DetectCell(
    const Cell& cell) const {
  CellDetection detection;
  // Draw paired samples: (paper, citations) plus the decoded author.
  struct PairedSample {
    std::int64_t citations;
    AuthorId author;
  };
  std::vector<PairedSample> samples;
  for (std::size_t i = 0; i < cell.value_samplers.size(); ++i) {
    const StatusOr<L0Sample> value = cell.value_samplers[i].Sample();
    const StatusOr<L0Sample> tagged = cell.author_samplers[i].Sample();
    if (!value.ok() || !tagged.ok()) continue;
    if (value.value().index != tagged.value().index) continue;  // paranoia
    const std::int64_t citations = value.value().value;
    if (citations <= 0) continue;
    // twin_value = citations * (author + 1) when every update to this
    // paper credited the same author within this bucket.
    if (tagged.value().value % citations != 0) continue;
    const std::int64_t author_plus_1 = tagged.value().value / citations;
    if (author_plus_1 < 1) continue;
    samples.push_back(PairedSample{
        citations, static_cast<AuthorId>(author_plus_1 - 1)});
  }
  if (samples.empty()) return detection;

  // Algorithm 5's estimate from the sampled values.
  const double y = cell.distinct.Estimate();
  const double x = static_cast<double>(samples.size());
  std::vector<std::int64_t> values;
  values.reserve(samples.size());
  for (const PairedSample& sample : samples) values.push_back(sample.citations);
  std::sort(values.begin(), values.end());
  const GeometricGrid grid(options_.universe, options_.eps);
  double h_estimate = 0.0;
  for (int i = 0; i < grid.num_levels(); ++i) {
    const double threshold = grid.Power(i);
    const auto first_ge = std::lower_bound(
        values.begin(), values.end(),
        static_cast<std::int64_t>(std::ceil(threshold)));
    const double r_i =
        static_cast<double>(values.end() - first_ge) * y / x;
    if (r_i >= threshold * (1.0 - options_.eps)) h_estimate = threshold;
  }
  if (h_estimate <= 0.0) return detection;

  // Algorithm 7's majority test over the h-supporting samples.
  std::map<AuthorId, int> author_counts;
  int supporting = 0;
  for (const PairedSample& sample : samples) {
    if (static_cast<double>(sample.citations) >=
        h_estimate / (1.0 + options_.eps)) {
      ++supporting;
      ++author_counts[sample.author];
    }
  }
  if (supporting == 0) return detection;
  AuthorId best_author = 0;
  int best_count = 0;
  for (const auto& [author, count] : author_counts) {
    if (count > best_count) {
      best_count = count;
      best_author = author;
    }
  }
  if (static_cast<double>(best_count) <
      (1.0 - options_.eps) * static_cast<double>(supporting)) {
    return detection;
  }
  detection.found = true;
  detection.author = best_author;
  detection.h_estimate = h_estimate;
  return detection;
}

std::vector<HeavyHitterReport> CashRegisterHeavyHitters::Report() const {
  std::map<AuthorId, std::vector<double>> detections;
  for (const Cell& cell : cells_) {
    const CellDetection detection = DetectCell(cell);
    if (detection.found) {
      detections[detection.author].push_back(detection.h_estimate);
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

SpaceUsage CashRegisterHeavyHitters::EstimateSpace() const {
  SpaceUsage usage;
  for (const auto& hash : row_hashes_) usage += hash.EstimateSpace();
  for (const Cell& cell : cells_) usage += cell.EstimateSpace();
  usage.bytes += sizeof(*this);
  return usage;
}

}  // namespace himpact
