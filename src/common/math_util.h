#ifndef HIMPACT_COMMON_MATH_UTIL_H_
#define HIMPACT_COMMON_MATH_UTIL_H_

#include <cstdint>
#include <vector>

/// \file
/// Numeric helpers shared by the streaming estimators: geometric
/// `(1+eps)^i` guess grids, integer logarithms, and ceiling division.
///
/// All of the paper's algorithms quantize candidate H-index values onto the
/// grid `{(1+eps)^0, (1+eps)^1, ...}`; `GeometricGrid` centralizes that
/// logic so every estimator rounds identically.

namespace himpact {

/// Number of bits in the machine word used for the paper's space accounting
/// ("each word consists of log n bits"). We report both the paper's
/// idealized word counts and concrete 64-bit words.
inline constexpr int kBitsPerWord = 64;

/// Returns `ceil(a / b)` for positive integers. Requires `b > 0`.
constexpr std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Returns `floor(log2(x))`. Requires `x > 0`.
int FloorLog2(std::uint64_t x);

/// Returns `ceil(log2(x))`. Requires `x > 0`.
int CeilLog2(std::uint64_t x);

/// Returns `log(x) / log(1 + eps)` (the real-valued guess index of `x`).
/// Requires `x > 0` and `eps > 0`.
double LogOnePlusEps(double x, double eps);

/// The most levels a geometric grid may have: ample for any `max_value`
/// at `eps >= 1e-4` (at most ~444k levels), and 8 MiB of powers.
inline constexpr int kMaxGeometricLevels = 1 << 20;

/// Whether the grid covering `[1, max_value]` at growth `eps` has at
/// most `kMaxGeometricLevels` levels. False for `eps` so small that
/// `1 + eps` rounds to 1 (the grid would never reach `max_value`) and
/// for `eps` that is not positive or is NaN. Decoders and `Create`
/// functions check it before building a grid from untrusted values.
bool GeometricGridFits(std::uint64_t max_value, double eps);

/// Returns the smallest number of grid levels `L` such that
/// `(1+eps)^(L-1) >= max_value`, i.e. the grid `{(1+eps)^0 ..
/// (1+eps)^(L-1)}` covers `[1, max_value]`. Requires `max_value >= 1`
/// and `GeometricGridFits(max_value, eps)`.
int NumGeometricLevels(std::uint64_t max_value, double eps);

/// The geometric guess grid `(1+eps)^i` for `i = 0 .. num_levels-1`.
///
/// Powers are precomputed by repeated multiplication so that every
/// estimator sees bit-identical thresholds; this matters when comparing an
/// estimator's chosen level against a reference computation in tests.
class GeometricGrid {
 public:
  /// Builds the grid covering `[1, max_value]`. Requires `eps > 0` and
  /// `max_value >= 1`.
  GeometricGrid(std::uint64_t max_value, double eps);

  /// The grid growth parameter `eps`.
  double eps() const { return eps_; }

  /// Number of levels in the grid.
  int num_levels() const { return static_cast<int>(powers_.size()); }

  /// `(1+eps)^i`. Requires `0 <= i < num_levels()`.
  double Power(int i) const { return powers_[static_cast<std::size_t>(i)]; }

  /// Largest level `i` with `(1+eps)^i <= x`, or -1 when `x < 1`.
  int LevelFloor(double x) const;

  /// All levels as a vector (for table printing in benches).
  const std::vector<double>& powers() const { return powers_; }

 private:
  double eps_;
  std::vector<double> powers_;
};

}  // namespace himpact

#endif  // HIMPACT_COMMON_MATH_UTIL_H_
