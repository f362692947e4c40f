#include "hash/cpu_features.h"

#include <atomic>

namespace himpact {
namespace {

// Cached levels use -1 as "not yet resolved". Resolution is idempotent,
// so a racy double-resolve writes the same value twice.
std::atomic<int> g_detected{-1};
std::atomic<int> g_active{-1};
// -2 = no override; otherwise the requested SimdLevel value.
std::atomic<int> g_override{-2};

SimdLevel Detect() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
  int level = g_detected.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(Detect());
    g_detected.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

SimdLevel ActiveSimdLevel() {
  int level = g_active.load(std::memory_order_relaxed);
  if (level < 0) {
    const int detected = static_cast<int>(DetectedSimdLevel());
    const int request = g_override.load(std::memory_order_relaxed);
    level = request >= 0 && request < detected ? request : detected;
    g_active.store(level, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

void SetSimdLevelOverride(SimdLevel level) {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active.store(-1, std::memory_order_relaxed);
}

void ClearSimdLevelOverride() {
  g_override.store(-2, std::memory_order_relaxed);
  g_active.store(-1, std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

}  // namespace himpact
