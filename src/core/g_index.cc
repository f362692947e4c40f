#include "core/g_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace himpact {

std::uint64_t ExactGIndex(const std::vector<std::uint64_t>& values) {
  if (values.empty()) return 0;
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::uint64_t best = 0;
  std::uint64_t prefix = 0;
  for (std::uint64_t g = 1; g <= sorted.size(); ++g) {
    prefix += sorted[g - 1];
    if (prefix >= g * g) best = g;
    // Once the prefix is behind g^2 and the remaining values are below
    // g, no larger g can catch up: each further step adds < g to the
    // prefix but > g to g^2.
    if (prefix < g * g && sorted[g - 1] < g) break;
  }
  return best;
}

StatusOr<GIndexEstimator> GIndexEstimator::Create(double eps,
                                                  std::uint64_t max_value) {
  if (!(eps > 0.0 && eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (max_value < 1) {
    return Status::InvalidArgument("max_value must be >= 1");
  }
  if (!GeometricGridFits(max_value, eps)) {
    return Status::InvalidArgument("eps too small for max_value");
  }
  return GIndexEstimator(eps, max_value);
}

GIndexEstimator::GIndexEstimator(double eps, std::uint64_t max_value)
    : eps_(eps), max_value_(max_value), grid_(max_value, eps) {
  count_.assign(static_cast<std::size_t>(grid_.num_levels()), 0);
  sum_.assign(static_cast<std::size_t>(grid_.num_levels()), 0);
}

void GIndexEstimator::Add(std::uint64_t value) {
  ++num_papers_;
  if (value == 0) return;
  int level = grid_.LevelFloor(static_cast<double>(value));
  HIMPACT_DCHECK(level >= 0);
  if (level >= grid_.num_levels()) level = grid_.num_levels() - 1;
  ++count_[static_cast<std::size_t>(level)];
  sum_[static_cast<std::size_t>(level)] += value;
}

double GIndexEstimator::Estimate() const {
  // Walk buckets from the most-cited down, reconstructing the sorted
  // prefix sum S(g); inside a bucket every value is approximated by the
  // bucket average. The predicate S(g) >= g^2 is monotone-decreasing in
  // g's tail, so per bucket a binary search finds the largest satisfied
  // g in its count range.
  double best = 0.0;
  double prefix_count = 0.0;
  double prefix_sum = 0.0;
  for (int i = grid_.num_levels() - 1; i >= 0; --i) {
    const std::uint64_t bucket_count = count_[static_cast<std::size_t>(i)];
    if (bucket_count == 0) continue;
    const double average =
        static_cast<double>(sum_[static_cast<std::size_t>(i)]) /
        static_cast<double>(bucket_count);
    const double lo = prefix_count;
    const double hi = prefix_count + static_cast<double>(bucket_count);
    // S(g) = prefix_sum + (g - lo) * average for g in (lo, hi].
    std::uint64_t g_lo = static_cast<std::uint64_t>(lo) + 1;
    std::uint64_t g_hi = static_cast<std::uint64_t>(hi);
    while (g_lo <= g_hi) {
      const std::uint64_t mid = g_lo + (g_hi - g_lo) / 2;
      const double s =
          prefix_sum + (static_cast<double>(mid) - lo) * average;
      if (s >= static_cast<double>(mid) * static_cast<double>(mid)) {
        best = std::max(best, static_cast<double>(mid));
        g_lo = mid + 1;
      } else {
        g_hi = mid - 1;
      }
    }
    prefix_count = hi;
    prefix_sum += static_cast<double>(sum_[static_cast<std::size_t>(i)]);
  }
  // Zero-citation papers extend the sorted prefix without adding to the
  // sum: g may reach min(num_papers, sqrt(total)), as in {100, 0, ..., 0}
  // where g = 10 with one cited paper.
  const double zero_extended =
      std::min(static_cast<double>(num_papers_),
               std::floor(std::sqrt(prefix_sum)));
  if (zero_extended > prefix_count) best = std::max(best, zero_extended);
  return best;
}

SpaceUsage GIndexEstimator::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = count_.size() + sum_.size();
  usage.bytes = sizeof(*this) +
                count_.capacity() * sizeof(std::uint64_t) +
                sum_.capacity() * sizeof(std::uint64_t);
  return usage;
}

}  // namespace himpact
