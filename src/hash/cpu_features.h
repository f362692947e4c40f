#ifndef HIMPACT_HASH_CPU_FEATURES_H_
#define HIMPACT_HASH_CPU_FEATURES_H_

/// \file
/// Runtime CPU feature detection and SIMD dispatch control.
///
/// The batch kernels (tabulation hashing, count-min/count-sketch row
/// tiles) each keep a scalar implementation that is the semantic ground
/// truth and an optional hand-vectorized AVX2 variant.
/// Dispatch happens once per process through `ActiveSimdLevel()`:
///
///   1. `SetSimdLevelOverride()` — programmatic override, used by
///      `batch_equivalence_test` to force both paths in one process;
///   2. cpuid detection (`__builtin_cpu_supports`), clamped to what the
///      host actually offers.
///
/// Requesting a level above the detected one clamps down to detection,
/// never up: the override can only disable vector paths, not fabricate
/// them on hardware without the instructions.

namespace himpact {

/// Instruction-set levels the batch kernels dispatch over. Levels are
/// ordered: a kernel compiled for level L runs at any level >= L.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// The highest level supported by this CPU (cpuid, cached after the
/// first call; never affected by overrides).
SimdLevel DetectedSimdLevel();

/// The level the batch kernels actually dispatch to right now:
/// min(DetectedSimdLevel(), override) — detection alone when no override
/// is set. Cached after first resolution; `SetSimdLevelOverride`
/// invalidates the cache.
SimdLevel ActiveSimdLevel();

/// Forces dispatch to `min(level, DetectedSimdLevel())` process-wide.
/// Intended for tests that must exercise both paths deterministically.
/// Not thread-safe against concurrent hashing: call only from test
/// setup, before kernels run on other threads.
void SetSimdLevelOverride(SimdLevel level);

/// Clears the programmatic override; detection applies again on the
/// next `ActiveSimdLevel()` call.
void ClearSimdLevelOverride();

/// Stable lowercase name for reports ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

}  // namespace himpact

#endif  // HIMPACT_HASH_CPU_FEATURES_H_
