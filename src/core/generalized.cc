#include "core/generalized.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace himpact {

double PhiSpec::operator()(double k) const {
  return scale * std::pow(k, power);
}

std::uint64_t ExactPhiIndex(const std::vector<std::uint64_t>& values,
                            const PhiSpec& phi) {
  if (values.empty()) return 0;
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  // After sorting descending, at least k entries are >= phi(k) iff
  // sorted[k-1] >= phi(k); the predicate is monotone in k, so scan for
  // the largest satisfied k.
  std::uint64_t best = 0;
  for (std::uint64_t k = 1; k <= sorted.size(); ++k) {
    if (static_cast<double>(sorted[k - 1]) >= phi(static_cast<double>(k))) {
      best = k;
    } else {
      break;
    }
  }
  return best;
}

StatusOr<PhiIndexEstimator> PhiIndexEstimator::Create(double eps,
                                                      std::uint64_t max_k,
                                                      const PhiSpec& phi) {
  if (!(eps > 0.0 && eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (max_k < 1) {
    return Status::InvalidArgument("max_k must be >= 1");
  }
  if (!GeometricGridFits(max_k, eps)) {
    return Status::InvalidArgument("eps too small for max_k");
  }
  if (!(phi.power >= 0.0)) {
    return Status::InvalidArgument("phi.power must be >= 0");
  }
  if (!(phi.scale > 0.0)) {
    return Status::InvalidArgument("phi.scale must be > 0");
  }
  return PhiIndexEstimator(eps, max_k, phi);
}

PhiIndexEstimator::PhiIndexEstimator(double eps, std::uint64_t max_k,
                                     const PhiSpec& phi)
    : eps_(eps), max_k_(max_k), phi_(phi), grid_(max_k, eps) {
  thresholds_.reserve(static_cast<std::size_t>(grid_.num_levels()));
  for (int i = 0; i < grid_.num_levels(); ++i) {
    thresholds_.push_back(phi_(grid_.Power(i)));
  }
  counters_.assign(thresholds_.size(), 0);
}

void PhiIndexEstimator::Add(std::uint64_t value) {
  if (value == 0) return;
  // Thresholds are non-decreasing, so the satisfied guesses form a
  // prefix; binary-search its end and bump those counters. (The counter
  // loop is O(levels) worst case but the prefix is usually short for
  // super-linear phi.)
  const double v = static_cast<double>(value);
  const auto end = std::upper_bound(thresholds_.begin(), thresholds_.end(), v);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(end - thresholds_.begin()); ++i) {
    ++counters_[i];
  }
}

double PhiIndexEstimator::Estimate() const {
  for (std::size_t i = counters_.size(); i-- > 0;) {
    if (static_cast<double>(counters_[i]) >=
        grid_.Power(static_cast<int>(i))) {
      return grid_.Power(static_cast<int>(i));
    }
  }
  return 0.0;
}

namespace {
constexpr std::uint64_t kPhiIndexMagic = 0x48494d5050484931ULL;
}  // namespace

void PhiIndexEstimator::SerializeTo(ByteWriter& writer) const {
  writer.U64(kPhiIndexMagic);
  writer.F64(eps_);
  writer.U64(max_k_);
  writer.F64(phi_.power);
  writer.F64(phi_.scale);
  writer.U64(counters_.size());
  for (const std::uint64_t count : counters_) writer.U64(count);
}

StatusOr<PhiIndexEstimator> PhiIndexEstimator::DeserializeFrom(
    ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kPhiIndexMagic) {
    return Status::InvalidArgument("not a PhiIndexEstimator checkpoint");
  }
  double eps = 0.0;
  std::uint64_t max_k = 0;
  PhiSpec phi;
  std::uint64_t count = 0;
  if (!reader.F64(&eps) || !reader.U64(&max_k) || !reader.F64(&phi.power) ||
      !reader.F64(&phi.scale) || !reader.U64(&count)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  StatusOr<PhiIndexEstimator> estimator = Create(eps, max_k, phi);
  if (!estimator.ok()) return estimator.status();
  if (count != estimator.value().counters_.size()) {
    return Status::InvalidArgument("checkpoint counter count mismatch");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.U64(&estimator.value().counters_[i])) {
      return Status::InvalidArgument("truncated checkpoint counters");
    }
  }
  return estimator;
}

SpaceUsage PhiIndexEstimator::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = counters_.size();
  usage.bytes = sizeof(*this) +
                counters_.capacity() * sizeof(std::uint64_t) +
                thresholds_.capacity() * sizeof(double);
  return usage;
}

}  // namespace himpact
