// F6 — Hot-path microbenchmarks for the batched ingest APIs and their
// SIMD kernels (docs/PERFORMANCE.md). Three families of BENCH{...} json
// lines:
//
//  * `f6_batch_vs_scalar` — per sketch, ns/event of the pre-PR hot path
//    (one call per event; through the virtual estimator interface where
//    one exists, since that is what generic callers used) against the
//    batched path (one `AddBatch`/`UpdateBatch` call per 1024-event
//    chunk on the concrete type), plus the speedup. Both sides ingest
//    the identical stream and the final estimates are cross-checked.
//  * `f6_simd_vs_scalar` — per sketch whose batch path reaches a SIMD
//    kernel (hyperloglog, distinct_counter, count_min, count_sketch,
//    cash_register), the batched path measured twice in-process with
//    the dispatch level pinned (`SetSimdLevelOverride`): once
//    forced-scalar, once at the detected SIMD level, repeats
//    alternating between the two so slow clock drift cancels. The
//    speedup isolates what the hand-vectorized kernels buy on top of
//    the batch API; both sides are cross-checked for identical results.
//    The other sketches would time identical code twice, so they get
//    no row (batch_equivalence_test still checks their state under
//    both dispatch levels).
//  * `f6_simd_kernels` — the hand-vectorized kernels in isolation
//    (tabulation hash, pairwise-range row hash, count-sketch row
//    hash+sign) on full-range keys, scalar twin vs AVX2 kernel,
//    repeats alternating. Full-range keys matter: the
//    scalar Mersenne/Barrett paths carry data-dependent fixup branches
//    that predict well on small-universe streams and mispredict at full
//    range, so small-key end-to-end rows understate what the branch-free
//    vector arithmetic buys. Rows are emitted only on hosts whose
//    detected level is avx2; outputs are cross-checked byte-identical.
//
//   ./bench_f6_hotpath [--quick] [--events N] [--repeats R]
//
// Timing is min-of-R wall clock (steady_clock) per measurement: the
// minimum is the least noisy estimator of the true cost on a shared
// machine. Run in Release/RelWithDebInfo for meaningful numbers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "common/batch.h"
#include "hash/cpu_features.h"
#include "hash/k_independent.h"
#include "hash/simd_kernels.h"
#include "hash/tabulation.h"
#include "core/cash_register.h"
#include "core/estimator.h"
#include "core/exponential_histogram.h"
#include "core/shifting_window.h"
#include "random/rng.h"
#include "sketch/bjkst.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/distinct.h"
#include "sketch/hyperloglog.h"
#include "sketch/kll.h"
#include "sketch/l0_sampler.h"
#include "sketch/space_saving.h"
#include "stream/types.h"

namespace {

using namespace himpact;

constexpr std::size_t kChunk = 1024;

struct F6Options {
  std::size_t events = 1 << 18;
  int repeats = 5;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Min-of-repeats wall clock of `fn()`, in seconds. `fn` must redo the
/// full measured work on every call (fresh estimator inside).
template <typename Fn>
double MinSeconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double start = NowSeconds();
    fn();
    const double elapsed = NowSeconds() - start;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Min-of-repeats for two workloads with the repeats interleaved
/// (a, b, a, b, ...): both see the same share of any machine-wide slow
/// drift, so their ratio stays honest on a noisy host.
template <typename FnA, typename FnB>
void MinSecondsAlternating(int repeats, FnA&& fn_a, FnB&& fn_b,
                           double* best_a, double* best_b) {
  for (int r = 0; r < repeats; ++r) {
    double start = NowSeconds();
    fn_a();
    const double elapsed_a = NowSeconds() - start;
    if (r == 0 || elapsed_a < *best_a) *best_a = elapsed_a;
    start = NowSeconds();
    fn_b();
    const double elapsed_b = NowSeconds() - start;
    if (r == 0 || elapsed_b < *best_b) *best_b = elapsed_b;
  }
}

void EmitSimdLine(const char* sketch, std::size_t events, double forced_s,
                  double simd_s) {
  const double forced_ns = forced_s * 1e9 / static_cast<double>(events);
  const double simd_ns = simd_s * 1e9 / static_cast<double>(events);
  std::printf(
      "BENCH{\"bench\":\"f6_simd_vs_scalar\",\"sketch\":\"%s\","
      "\"events\":%zu,\"chunk\":%zu,\"simd_level\":\"%s\","
      "\"scalar_batch_ns_per_event\":%.2f,\"simd_batch_ns_per_event\":%.2f,"
      "\"simd_speedup\":%.2f}\n",
      sketch, events, kChunk, SimdLevelName(DetectedSimdLevel()), forced_ns,
      simd_ns, simd_ns > 0.0 ? forced_ns / simd_ns : 0.0);
}

/// Measures `run()` (the batched ingest) under forced-scalar and
/// detected-SIMD dispatch, alternating, and emits `f6_simd_vs_scalar`.
/// `run` must return the probed result so the two paths are
/// cross-checked for exact equality.
template <typename Run>
void RunSimdCase(const char* name, const F6Options& options,
                 std::size_t events, Run run) {
  double forced_result = 0.0;
  double simd_result = 0.0;
  double forced_s = 0.0;
  double simd_s = 0.0;
  MinSecondsAlternating(
      options.repeats,
      [&] {
        SetSimdLevelOverride(SimdLevel::kScalar);
        forced_result = run();
      },
      [&] {
        SetSimdLevelOverride(SimdLevel::kAvx2);  // clamped to detection
        simd_result = run();
      },
      &forced_s, &simd_s);
  ClearSimdLevelOverride();
  if (forced_result != simd_result) {
    std::fprintf(stderr, "f6 %s: scalar/simd dispatch results diverge\n",
                 name);
    std::exit(1);
  }
  EmitSimdLine(name, events, forced_s, simd_s);
}

void EmitBatchLine(const char* sketch, std::size_t events, double scalar_s,
                   double batch_s) {
  const double scalar_ns = scalar_s * 1e9 / static_cast<double>(events);
  const double batch_ns = batch_s * 1e9 / static_cast<double>(events);
  std::printf(
      "BENCH{\"bench\":\"f6_batch_vs_scalar\",\"sketch\":\"%s\","
      "\"events\":%zu,\"chunk\":%zu,\"scalar_ns_per_event\":%.2f,"
      "\"batch_ns_per_event\":%.2f,\"speedup\":%.2f}\n",
      sketch, events, kChunk, scalar_ns, batch_ns,
      batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0);
}

/// Whether a sketch's batch path reaches a SIMD kernel, i.e. whether
/// it gets an `f6_simd_vs_scalar` row.
enum class Simd { kNone, kKernel };

/// One batch-vs-scalar measurement. `make` builds a fresh estimator,
/// `scalar(est, value)` applies one event the pre-PR way, `batch(est,
/// span)` applies a chunk, and `probe` reads a result (cross-checked
/// between the two sides, and keeps the work observable). With
/// `Simd::kKernel` the batched path is also timed under both dispatch
/// levels.
template <typename Make, typename Scalar, typename Batch, typename Probe>
void RunBatchCase(const char* name, Simd simd, const F6Options& options,
                  const std::vector<std::uint64_t>& stream, Make make,
                  Scalar scalar, Batch batch, Probe probe) {
  double scalar_result = 0.0;
  const double scalar_s = MinSeconds(options.repeats, [&] {
    auto estimator = make();
    for (const std::uint64_t v : stream) scalar(estimator, v);
    scalar_result = probe(estimator);
  });
  double batch_result = 0.0;
  const double batch_s = MinSeconds(options.repeats, [&] {
    auto estimator = make();
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - i);
      batch(estimator, std::span<const std::uint64_t>(&stream[i], n));
    }
    batch_result = probe(estimator);
  });
  if (scalar_result != batch_result) {
    std::fprintf(stderr, "f6 %s: scalar/batch results diverge (%f vs %f)\n",
                 name, scalar_result, batch_result);
    std::exit(1);
  }
  EmitBatchLine(name, stream.size(), scalar_s, batch_s);
  if (simd == Simd::kNone) return;
  RunSimdCase(name, options, stream.size(), [&] {
    auto estimator = make();
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - i);
      batch(estimator, std::span<const std::uint64_t>(&stream[i], n));
    }
    return probe(estimator);
  });
}

void RunBatchVsScalar(const F6Options& options) {
  Rng rng(17);
  std::vector<std::uint64_t> values;
  values.reserve(options.events);
  for (std::size_t i = 0; i < options.events; ++i) {
    values.push_back(1 + rng.UniformU64(1u << 20));
  }
  const std::uint64_t universe = 1 << 16;
  std::vector<std::uint64_t> keys;
  keys.reserve(options.events);
  for (std::size_t i = 0; i < options.events; ++i) {
    keys.push_back(rng.UniformU64(universe));
  }

  // Aggregate estimators with a virtual interface: the scalar side calls
  // through `AggregateHIndexEstimator&` — the pre-PR generic hot path.
  RunBatchCase(
      "exponential_histogram", Simd::kNone, options, values,
      [&] { return ExponentialHistogramEstimator::Create(0.1, 1u << 20).value(); },
      [](ExponentialHistogramEstimator& e, std::uint64_t v) {
        static_cast<AggregateHIndexEstimator&>(e).Add(v);
      },
      [](ExponentialHistogramEstimator& e,
         std::span<const std::uint64_t> chunk) { e.AddBatch(chunk); },
      [](ExponentialHistogramEstimator& e) { return e.Estimate(); });
  RunBatchCase(
      "shifting_window", Simd::kNone, options, values,
      [&] { return ShiftingWindowEstimator::Create(0.1).value(); },
      [](ShiftingWindowEstimator& e, std::uint64_t v) {
        static_cast<AggregateHIndexEstimator&>(e).Add(v);
      },
      [](ShiftingWindowEstimator& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      },
      [](ShiftingWindowEstimator& e) { return e.Estimate(); });

  // Plain sketches: scalar is one (cross-TU) call per event.
  RunBatchCase(
      "hyperloglog", Simd::kKernel, options, keys,
      [&] { return HyperLogLog(12, 23); },
      [](HyperLogLog& e, std::uint64_t v) { e.Add(v); },
      [](HyperLogLog& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      },
      [](HyperLogLog& e) { return e.Estimate(); });
  RunBatchCase(
      "bjkst", Simd::kNone, options, keys,
      [&] { return BjkstDistinct(0.1, 29); },
      [](BjkstDistinct& e, std::uint64_t v) { e.Add(v); },
      [](BjkstDistinct& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      },
      [](BjkstDistinct& e) { return e.Estimate(); });
  RunBatchCase(
      "distinct_counter", Simd::kKernel, options, keys,
      [&] { return DistinctCounter(0.1, 0.1, 43); },
      [](DistinctCounter& e, std::uint64_t v) { e.Add(v); },
      [](DistinctCounter& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk.data(), chunk.size());
      },
      [](DistinctCounter& e) { return e.Estimate(); });
  RunBatchCase(
      "kll", Simd::kNone, options, values,
      [&] { return KllSketch(256, 31); },
      [](KllSketch& e, std::uint64_t v) { e.Add(v); },
      [](KllSketch& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      },
      [](KllSketch& e) { return e.Rank(1u << 19); });
  RunBatchCase(
      "count_min", Simd::kKernel, options, keys,
      [&] { return CountMinSketch(0.001, 0.01, 37); },
      [](CountMinSketch& e, std::uint64_t v) { e.Update(v, 1); },
      [](CountMinSketch& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      },
      [](CountMinSketch& e) { return static_cast<double>(e.Query(7)); });
  RunBatchCase(
      "count_sketch", Simd::kKernel, options, keys,
      [&] { return CountSketch(2048, 5, 41); },
      [](CountSketch& e, std::uint64_t v) { e.Update(v, 1); },
      [](CountSketch& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      },
      [](CountSketch& e) { return static_cast<double>(e.Query(7)); });
  RunBatchCase(
      "space_saving", Simd::kNone, options, keys,
      [&] { return SpaceSaving(256); },
      [](SpaceSaving& e, std::uint64_t v) { e.Update(v, 1); },
      [](SpaceSaving& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      },
      [](SpaceSaving& e) { return static_cast<double>(e.total()); });

  // Cash-register estimator: scalar through the virtual interface,
  // batch through `UpdateBatch` with a caller-owned arena (the engine's
  // exact calling convention).
  {
    // A deliberately bounded sampler count: the default geometry makes
    // each update cost hundreds of microseconds, which measures the same
    // loops at benchmark-hostile runtimes. 32 samplers keep the shape
    // (sampler-outer locality is what the batch path buys) and the run
    // finite; the stream is trimmed to match.
    const std::size_t cr_events = std::min<std::size_t>(keys.size(), 1 << 14);
    std::vector<CitationEvent> events;
    events.reserve(cr_events);
    for (std::size_t i = 0; i < cr_events; ++i) {
      events.push_back(CitationEvent{keys[i], 1});
    }
    CashRegisterOptions cr_options;
    cr_options.num_samplers_override = 32;
    const auto make = [&] {
      return CashRegisterEstimator::Create(0.2, 0.1, universe, 13, cr_options)
          .value();
    };
    double scalar_result = 0.0;
    const double scalar_s = MinSeconds(options.repeats, [&] {
      auto estimator = make();
      CashRegisterHIndexEstimator& base = estimator;
      for (const CitationEvent& event : events) {
        base.Update(event.paper, event.delta);
      }
      scalar_result = estimator.Estimate();
    });
    BatchArena arena;
    double batch_result = 0.0;
    const double batch_s = MinSeconds(options.repeats, [&] {
      auto estimator = make();
      for (std::size_t i = 0; i < events.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, events.size() - i);
        estimator.UpdateBatch(std::span<const CitationEvent>(&events[i], n),
                              arena);
      }
      batch_result = estimator.Estimate();
    });
    if (scalar_result != batch_result) {
      std::fprintf(stderr,
                   "f6 cash_register: scalar/batch results diverge\n");
      std::exit(1);
    }
    EmitBatchLine("cash_register", events.size(), scalar_s, batch_s);
    RunSimdCase("cash_register", options, events.size(), [&] {
      auto estimator = make();
      for (std::size_t i = 0; i < events.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, events.size() - i);
        estimator.UpdateBatch(std::span<const CitationEvent>(&events[i], n),
                              arena);
      }
      return estimator.Estimate();
    });
  }
}

void RunSimdKernels(const F6Options& options) {
#ifdef HIMPACT_HAVE_AVX2_KERNELS
  if (DetectedSimdLevel() != SimdLevel::kAvx2) return;
  const std::size_t n = options.events;
  Rng rng(71);
  std::vector<std::uint64_t> keys(n);
  for (auto& key : keys) key = rng.UniformU64(~std::uint64_t{0});
  std::vector<std::uint64_t> out_a(n);
  std::vector<std::uint64_t> out_b(n);

  const auto emit = [&](const char* kernel, double scalar_s, double simd_s) {
    const double scalar_ns = scalar_s * 1e9 / static_cast<double>(n);
    const double simd_ns = simd_s * 1e9 / static_cast<double>(n);
    std::printf(
        "BENCH{\"bench\":\"f6_simd_kernels\",\"kernel\":\"%s\",\"keys\":%zu,"
        "\"simd_level\":\"avx2\",\"scalar_ns_per_key\":%.2f,"
        "\"simd_ns_per_key\":%.2f,\"simd_speedup\":%.2f}\n",
        kernel, n, scalar_ns, simd_ns,
        simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0);
  };
  const auto check_equal = [&](const char* kernel) {
    if (out_a != out_b) {
      std::fprintf(stderr, "f6 simd kernel %s: outputs diverge\n", kernel);
      std::exit(1);
    }
  };

  // Tabulation and pairwise-range measure through the public HashBatch
  // under pinned dispatch; the sketch-internal count-sketch row kernel
  // is called directly against its scalar twin.
  {
    TabulationHash hash(11);
    double scalar_s = 0.0;
    double simd_s = 0.0;
    MinSecondsAlternating(
        options.repeats,
        [&] {
          SetSimdLevelOverride(SimdLevel::kScalar);
          hash.HashBatch(keys.data(), out_a.data(), n);
        },
        [&] {
          SetSimdLevelOverride(SimdLevel::kAvx2);
          hash.HashBatch(keys.data(), out_b.data(), n);
        },
        &scalar_s, &simd_s);
    ClearSimdLevelOverride();
    check_equal("tabulation");
    emit("tabulation", scalar_s, simd_s);
  }
  {
    PairwiseRangeHash hash(2719, 13);
    double scalar_s = 0.0;
    double simd_s = 0.0;
    MinSecondsAlternating(
        options.repeats,
        [&] {
          SetSimdLevelOverride(SimdLevel::kScalar);
          hash.HashBatch(keys.data(), out_a.data(), n);
        },
        [&] {
          SetSimdLevelOverride(SimdLevel::kAvx2);
          hash.HashBatch(keys.data(), out_b.data(), n);
        },
        &scalar_s, &simd_s);
    ClearSimdLevelOverride();
    check_equal("pairwise_range");
    emit("pairwise_range", scalar_s, simd_s);
  }
  {
    const KIndependentHash bucket_hash(2, 17);
    const KIndependentHash sign_hash(4, 19);
    const std::uint64_t width = 2048;
    const std::uint64_t barrett = ~std::uint64_t{0} / width;
    const std::uint64_t* bc = bucket_hash.coefficients().data();
    const std::uint64_t* sc = sign_hash.coefficients().data();
    std::vector<std::int64_t> signs_a(n);
    std::vector<std::int64_t> signs_b(n);
    double scalar_s = 0.0;
    double simd_s = 0.0;
    MinSecondsAlternating(
        options.repeats,
        [&] {
          // The count-sketch row's scalar twin: hoisted-coefficient
          // Horner for bucket (deg 1) and sign (deg 3), as in
          // CountSketch::UpdateBatch.
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t xr = keys[i] % kMersenne61;
            std::uint64_t b =
                ModMersenne61(static_cast<unsigned __int128>(bc[1]) * xr);
            b += bc[0];
            if (b >= kMersenne61) b -= kMersenne61;
            std::uint64_t s = sc[3];
            for (int c = 2; c >= 0; --c) {
              s = ModMersenne61(static_cast<unsigned __int128>(s) * xr) +
                  sc[c];
              if (s >= kMersenne61) s -= kMersenne61;
            }
            out_a[i] = BarrettMod(b, width, barrett);
            signs_a[i] = (s & 1) == 0 ? 1 : -1;
          }
        },
        [&] {
          simd::CountSketchRowHashBatchAvx2(bc, sc, width, barrett,
                                            keys.data(), out_b.data(),
                                            signs_b.data(), n);
        },
        &scalar_s, &simd_s);
    check_equal("count_sketch_row");
    if (signs_a != signs_b) std::exit(1);
    emit("count_sketch_row", scalar_s, simd_s);
  }
#else
  (void)options;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  F6Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.events = 1 << 15;
      options.repeats = 3;
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      options.events = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      options.repeats = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_f6_hotpath [--quick] [--events N] "
                   "[--repeats R]\n");
      return 2;
    }
  }
  if (options.events < kChunk) options.events = kChunk;
  if (options.repeats < 1) options.repeats = 1;
  RunBatchVsScalar(options);
  RunSimdKernels(options);
  return 0;
}
