#include "common/math_util.h"

#include <cmath>

#include "common/check.h"

namespace himpact {

int FloorLog2(std::uint64_t x) {
  HIMPACT_CHECK(x > 0);
  int log = 0;
  while (x >>= 1) ++log;
  return log;
}

int CeilLog2(std::uint64_t x) {
  HIMPACT_CHECK(x > 0);
  const int floor_log = FloorLog2(x);
  return (std::uint64_t{1} << floor_log) == x ? floor_log : floor_log + 1;
}

double LogOnePlusEps(double x, double eps) {
  HIMPACT_CHECK(x > 0.0);
  HIMPACT_CHECK(eps > 0.0);
  return std::log(x) / std::log1p(eps);
}

bool GeometricGridFits(std::uint64_t max_value, double eps) {
  if (!(eps > 0.0)) return false;
  if (max_value <= 1) return true;
  // The level count is 1 + ceil(log(max) / log1p(eps)) up to rounding of
  // the repeated product; the margin absorbs that. A tiny eps makes the
  // ratio huge or infinite, never NaN.
  const double levels =
      std::log(static_cast<double>(max_value)) / std::log1p(eps);
  return levels < static_cast<double>(kMaxGeometricLevels) - 4.0;
}

int NumGeometricLevels(std::uint64_t max_value, double eps) {
  HIMPACT_CHECK(max_value >= 1);
  HIMPACT_CHECK(GeometricGridFits(max_value, eps));
  int levels = 1;
  double power = 1.0;
  const double max = static_cast<double>(max_value);
  while (power < max) {
    power *= (1.0 + eps);
    ++levels;
  }
  return levels;
}

GeometricGrid::GeometricGrid(std::uint64_t max_value, double eps)
    : eps_(eps) {
  const int levels = NumGeometricLevels(max_value, eps);
  powers_.reserve(static_cast<std::size_t>(levels));
  double power = 1.0;
  for (int i = 0; i < levels; ++i) {
    powers_.push_back(power);
    power *= (1.0 + eps);
  }
}

int GeometricGrid::LevelFloor(double x) const {
  if (x < 1.0) return -1;
  // Binary search for the last power <= x.
  int lo = 0;
  int hi = num_levels() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (powers_[static_cast<std::size_t>(mid)] <= x) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return powers_[static_cast<std::size_t>(lo)] <= x ? lo : -1;
}

}  // namespace himpact
