#include "core/cash_register.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "hash/mix.h"

namespace himpact {
namespace {

std::size_t NumSamplers(double eps, double delta, std::uint64_t universe,
                        const CashRegisterOptions& options) {
  if (options.num_samplers_override > 0) return options.num_samplers_override;
  const double base = 3.0 / (eps * eps) * std::log(2.0 / delta);
  if (options.mode == CashRegisterMode::kAdditive) {
    return static_cast<std::size_t>(std::ceil(base));
  }
  return static_cast<std::size_t>(
      std::ceil(base * static_cast<double>(universe) / options.beta));
}

}  // namespace

StatusOr<CashRegisterEstimator> CashRegisterEstimator::Create(
    double eps, double delta, std::uint64_t universe, std::uint64_t seed,
    const CashRegisterOptions& options) {
  if (!(eps > 0.0 && eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (universe < 1) {
    return Status::InvalidArgument("universe must be >= 1");
  }
  if (!GeometricGridFits(universe, eps)) {
    return Status::InvalidArgument("eps too small for universe");
  }
  if (options.mode == CashRegisterMode::kMultiplicative &&
      !(options.beta > 0.0)) {
    return Status::InvalidArgument(
        "multiplicative mode requires a positive beta lower bound");
  }
  if (!(options.sampler_delta > 0.0 && options.sampler_delta < 1.0)) {
    return Status::InvalidArgument("sampler_delta must be in (0, 1)");
  }
  const std::size_t x = NumSamplers(eps, delta, universe, options);
  if (x < 1) {
    return Status::InvalidArgument("sampler count must be >= 1");
  }
  CashRegisterEstimator estimator(eps, delta, universe, seed, 0);
  estimator.sampler_delta_ = options.sampler_delta;
  std::uint64_t sampler_seed = SplitMix64(seed ^ 0xb5297a4d3f84d5b5ULL);
  estimator.samplers_.reserve(x);
  for (std::size_t i = 0; i < x; ++i) {
    sampler_seed = SplitMix64(sampler_seed);
    estimator.samplers_.emplace_back(universe, options.sampler_delta,
                                     sampler_seed);
  }
  return estimator;
}

CashRegisterEstimator::CashRegisterEstimator(double eps, double delta,
                                             std::uint64_t universe,
                                             std::uint64_t seed,
                                             std::size_t num_samplers)
    : eps_(eps),
      delta_(delta),
      universe_(universe),
      seed_(seed),
      sampler_delta_(0.05),
      distinct_(std::min(eps, 0.5), delta,
                SplitMix64(seed ^ 0x94d049bb133111ebULL)) {
  samplers_.reserve(num_samplers);
}

void CashRegisterEstimator::Update(std::uint64_t paper, std::int64_t delta) {
  HIMPACT_CHECK(paper < universe_);
  if (delta == 0) return;
  for (L0Sampler& sampler : samplers_) {
    sampler.Update(paper, delta);
  }
  distinct_.Add(paper);
}

void CashRegisterEstimator::UpdateBatch(std::span<const CitationEvent> events,
                                        BatchArena& arena) {
  // Validate and compact once, then run sampler-outer loops: each
  // l0-sampler hashes the whole batch while its level structures are in
  // cache, instead of every sampler being touched per event. All
  // sub-sketches are linear, so reordering across events per sampler
  // leaves the serialized state identical to the scalar sequence.
  std::uint64_t* const papers = arena.U64(events.size());
  std::int64_t* const deltas = arena.I64(events.size());
  std::size_t m = 0;
  for (const CitationEvent& event : events) {
    HIMPACT_CHECK(event.paper < universe_);
    if (event.delta == 0) continue;
    papers[m] = event.paper;
    deltas[m] = event.delta;
    ++m;
  }
  if (m == 0) return;
  for (L0Sampler& sampler : samplers_) {
    sampler.UpdateBatch(papers, deltas, m);
  }
  distinct_.AddBatch(papers, m);
}

void CashRegisterEstimator::Merge(const CashRegisterEstimator& other) {
  HIMPACT_CHECK_MSG(eps_ == other.eps_ && universe_ == other.universe_ &&
                        seed_ == other.seed_ &&
                        samplers_.size() == other.samplers_.size(),
                    "merging CashRegisterEstimators with different parameters");
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    samplers_[i].Merge(other.samplers_[i]);
  }
  distinct_.Merge(other.distinct_);
}

double CashRegisterEstimator::Estimate() const {
  // Draw from every sampler; failed instances simply shrink the sample.
  std::vector<std::int64_t> values;
  values.reserve(samplers_.size());
  for (const L0Sampler& sampler : samplers_) {
    const StatusOr<L0Sample> sample = sampler.Sample();
    if (sample.ok()) values.push_back(sample.value().value);
  }
  last_success_ = values.size();
  if (values.empty()) return 0.0;

  const double y = distinct_.Estimate();
  const double x = static_cast<double>(values.size());

  // r_i = |{samples with value >= (1+eps)^i}| * y / x; accept the largest
  // guess with r_i >= (1+eps)^i (1 - eps) (Algorithm 5, step 6).
  std::sort(values.begin(), values.end());
  const GeometricGrid grid(universe_, eps_);
  double best = 0.0;
  for (int i = 0; i < grid.num_levels(); ++i) {
    const double threshold = grid.Power(i);
    const auto first_ge = std::lower_bound(
        values.begin(), values.end(),
        static_cast<std::int64_t>(std::ceil(threshold)));
    const double r_i =
        static_cast<double>(values.end() - first_ge) * y / x;
    if (r_i >= threshold * (1.0 - eps_)) {
      best = threshold;
    }
  }
  return best;
}

namespace {
constexpr std::uint64_t kCashRegisterMagic = 0x48494d5043415348ULL;
}  // namespace

void CashRegisterEstimator::SerializeTo(ByteWriter& writer) const {
  writer.U64(kCashRegisterMagic);
  writer.F64(eps_);
  writer.F64(delta_);
  writer.U64(universe_);
  writer.U64(seed_);
  writer.F64(sampler_delta_);
  writer.U64(samplers_.size());
  for (const L0Sampler& sampler : samplers_) {
    sampler.SerializeStateTo(writer);
  }
  distinct_.SerializeStateTo(writer);
}

StatusOr<CashRegisterEstimator> CashRegisterEstimator::DeserializeFrom(
    ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kCashRegisterMagic) {
    return Status::InvalidArgument("not a CashRegisterEstimator checkpoint");
  }
  double eps = 0.0;
  double delta = 0.0;
  std::uint64_t universe = 0;
  std::uint64_t seed = 0;
  double sampler_delta = 0.0;
  std::uint64_t num_samplers = 0;
  if (!reader.F64(&eps) || !reader.F64(&delta) || !reader.U64(&universe) ||
      !reader.U64(&seed) || !reader.F64(&sampler_delta) ||
      !reader.U64(&num_samplers)) {
    return Status::InvalidArgument(
        "truncated CashRegisterEstimator checkpoint");
  }
  // Create() re-validates eps/delta/universe; bound the extra fields that
  // drive allocation before any sampler is constructed. Each sampler's
  // serialized state carries at least one word per level, so the sampler
  // count must be consistent with the remaining bytes.
  if (!(eps > 1e-3) || !(eps < 1.0) || !(delta > 1e-12) || !(delta < 1.0) ||
      universe < 1 || !(sampler_delta > 1e-9) || !(sampler_delta < 1.0)) {
    return Status::InvalidArgument(
        "corrupt CashRegisterEstimator parameters");
  }
  const double per_sampler_cells =
      [&] {
        // floor() mirrors L0Sampler's size_t truncation of sparsity.
        const double sparsity = std::floor(
            std::max(8.0, 2.0 * std::log2(1.0 / sampler_delta) + 4.0));
        const double rows = std::max(
            2.0, std::ceil(std::log2(sparsity / (sampler_delta / 2.0))));
        const double levels = static_cast<double>(
            CeilLog2(std::max<std::uint64_t>(2, universe)) + 1);
        return levels * rows * 2.0 * sparsity;
      }();
  if (num_samplers < 1 ||
      static_cast<double>(num_samplers) * per_sampler_cells * 32.0 >
          static_cast<double>(reader.remaining())) {
    return Status::InvalidArgument(
        "CashRegisterEstimator checkpoint smaller than its declared "
        "geometry");
  }
  CashRegisterOptions options;
  options.num_samplers_override = static_cast<std::size_t>(num_samplers);
  options.sampler_delta = sampler_delta;
  StatusOr<CashRegisterEstimator> estimator =
      Create(eps, delta, universe, seed, options);
  if (!estimator.ok()) return estimator.status();
  for (L0Sampler& sampler : estimator.value().samplers_) {
    const Status status = sampler.DeserializeStateFrom(reader);
    if (!status.ok()) return status;
  }
  const Status status =
      estimator.value().distinct_.DeserializeStateFrom(reader);
  if (!status.ok()) return status;
  return estimator;
}

SpaceUsage CashRegisterEstimator::EstimateSpace() const {
  SpaceUsage usage = distinct_.EstimateSpace();
  for (const L0Sampler& sampler : samplers_) {
    usage += sampler.EstimateSpace();
  }
  usage.bytes += sizeof(*this);
  return usage;
}

}  // namespace himpact
