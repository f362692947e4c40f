// Batch/scalar equivalence: every batch ingest method must leave the
// estimator byte-identical (per SerializeTo) to the same events applied
// through the scalar call, one at a time, in the same order. This is the
// contract that makes batching a pure performance change (see
// docs/PERFORMANCE.md): batch paths may reorder state-independent work
// (hashing, level search) or commutative updates (counter sums), but
// never anything observable. Streams are fed to the batch side in
// ragged chunks so the unrolled lanes and their remainder loops are both
// exercised.
//
// Every comparison runs twice, under forced-scalar and forced-SIMD
// dispatch (hash/cpu_features.h), and the batch-side state must also be
// byte-identical ACROSS the two levels — the vectorized kernels are a
// pure speedup, never an observable change. On hosts without AVX2 the
// forced-SIMD pass clamps down to scalar and degenerates to a repeat,
// so the suite stays meaningful (if redundant) everywhere.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch.h"
#include "common/bytes.h"
#include "hash/cpu_features.h"
#include "core/cash_register.h"
#include "core/exponential_histogram.h"
#include "core/shifting_window.h"
#include "hash/tabulation.h"
#include "heavy/heavy_hitters.h"
#include "heavy/one_heavy_hitter.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "sketch/bjkst.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/distinct.h"
#include "sketch/hyperloglog.h"
#include "sketch/kll.h"
#include "sketch/l0_sampler.h"
#include "sketch/space_saving.h"
#include "stream/types.h"

namespace himpact {
namespace {

constexpr std::size_t kEvents = 20000;

// Ragged chunk lengths covering the unroll width (4), sub-width tails,
// the count-min hash tile (256), and the engine's typical batch sizes.
constexpr std::size_t kChunkSizes[] = {1, 2, 3, 4, 5, 7, 13, 64, 97, 256, 1000};

template <typename Estimator>
std::vector<std::uint8_t> Serialized(const Estimator& estimator) {
  ByteWriter writer;
  estimator.SerializeTo(writer);
  return writer.buffer();
}

// Runs `body(level)` under each forced dispatch level and restores
// detection-order dispatch afterwards. The body's serialized batch-side
// state is collected per level and asserted equal across levels — the
// SIMD kernels must be byte-invisible, not just scalar-equivalent
// within one dispatch mode.
template <typename Body>
void ForEachSimdLevel(const char* name, Body body) {
  std::vector<std::uint8_t> previous;
  bool have_previous = false;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    SetSimdLevelOverride(level);
    const std::vector<std::uint8_t> bytes = body(level);
    if (have_previous) {
      EXPECT_EQ(previous, bytes)
          << name << ": state under " << SimdLevelName(level)
          << " dispatch diverged from the scalar-dispatch state";
    }
    previous = bytes;
    have_previous = true;
  }
  ClearSimdLevelOverride();
}

// Drives `scalar` element-wise and `batch` chunk-wise over the same
// stream and asserts the serialized states match byte for byte — once
// per dispatch level, with the batch-side bytes also compared across
// levels by `ForEachSimdLevel`.
template <typename Make, typename Scalar, typename Batch>
void ExpectByteIdentical(const char* name,
                         const std::vector<std::uint64_t>& stream, Make make,
                         Scalar scalar, Batch batch) {
  ForEachSimdLevel(name, [&](SimdLevel level) {
    auto scalar_side = make();
    for (const std::uint64_t value : stream) scalar(scalar_side, value);

    auto batch_side = make();
    std::size_t chunk_index = 0;
    for (std::size_t i = 0; i < stream.size();) {
      const std::size_t want =
          kChunkSizes[chunk_index % std::size(kChunkSizes)];
      const std::size_t n = std::min(want, stream.size() - i);
      batch(batch_side, std::span<const std::uint64_t>(&stream[i], n));
      i += n;
      ++chunk_index;
    }

    const std::vector<std::uint8_t> batch_bytes = Serialized(batch_side);
    EXPECT_EQ(Serialized(scalar_side), batch_bytes)
        << name << ": batch ingest diverged from the scalar sequence under "
        << SimdLevelName(level) << " dispatch";
    return batch_bytes;
  });
}

// A stream with zeros (several batch kernels gate zero specially),
// duplicates, and heavy values past typical grid caps.
std::vector<std::uint64_t> MixedValues(std::uint64_t cap, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> values;
  values.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i % 37 == 0) {
      values.push_back(0);
    } else {
      values.push_back(rng.UniformU64(cap));
    }
  }
  return values;
}

TEST(BatchEquivalence, ExponentialHistogram) {
  ExpectByteIdentical(
      "exponential_histogram", MixedValues(1u << 21, 3),
      [] { return ExponentialHistogramEstimator::Create(0.1, 1u << 20).value(); },
      [](ExponentialHistogramEstimator& e, std::uint64_t v) { e.Add(v); },
      [](ExponentialHistogramEstimator& e,
         std::span<const std::uint64_t> chunk) { e.AddBatch(chunk); });
}

TEST(BatchEquivalence, ShiftingWindow) {
  ExpectByteIdentical(
      "shifting_window", MixedValues(1u << 16, 5),
      [] { return ShiftingWindowEstimator::Create(0.1).value(); },
      [](ShiftingWindowEstimator& e, std::uint64_t v) { e.Add(v); },
      [](ShiftingWindowEstimator& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      });
}

TEST(BatchEquivalence, HyperLogLog) {
  ExpectByteIdentical(
      "hyperloglog", MixedValues(1u << 18, 7),
      [] { return HyperLogLog(12, 23); },
      [](HyperLogLog& e, std::uint64_t v) { e.Add(v); },
      [](HyperLogLog& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      });
}

TEST(BatchEquivalence, Bjkst) {
  ExpectByteIdentical(
      "bjkst", MixedValues(1u << 18, 9), [] { return BjkstDistinct(0.1, 29); },
      [](BjkstDistinct& e, std::uint64_t v) { e.Add(v); },
      [](BjkstDistinct& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      });
}

TEST(BatchEquivalence, DistinctCounter) {
  ExpectByteIdentical(
      "distinct_counter", MixedValues(1u << 14, 11),
      [] { return DistinctCounter(0.2, 0.2, 43); },
      [](DistinctCounter& e, std::uint64_t v) { e.Add(v); },
      [](DistinctCounter& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk.data(), chunk.size());
      });
}

TEST(BatchEquivalence, Kll) {
  ExpectByteIdentical(
      "kll", MixedValues(1u << 20, 13), [] { return KllSketch(256, 31); },
      [](KllSketch& e, std::uint64_t v) { e.Add(v); },
      [](KllSketch& e, std::span<const std::uint64_t> chunk) {
        e.AddBatch(chunk);
      });
}

TEST(BatchEquivalence, CountMin) {
  ExpectByteIdentical(
      "count_min", MixedValues(1u << 16, 15),
      [] { return CountMinSketch(0.01, 0.05, 37); },
      [](CountMinSketch& e, std::uint64_t v) { e.Update(v, 1); },
      [](CountMinSketch& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      });
}

TEST(BatchEquivalence, CountSketch) {
  ExpectByteIdentical(
      "count_sketch", MixedValues(1u << 16, 17),
      [] { return CountSketch(512, 5, 41); },
      [](CountSketch& e, std::uint64_t v) { e.Update(v, 1); },
      [](CountSketch& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      });
}

TEST(BatchEquivalence, SpaceSaving) {
  // Zipf keys keep the summary churning (evictions are the interesting
  // order-dependent path).
  Rng rng(19);
  const ZipfSampler zipf(5000, 1.1);
  std::vector<std::uint64_t> keys;
  keys.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) keys.push_back(zipf.Sample(rng));
  ExpectByteIdentical(
      "space_saving", keys, [] { return SpaceSaving(128); },
      [](SpaceSaving& e, std::uint64_t v) { e.Update(v, 1); },
      [](SpaceSaving& e, std::span<const std::uint64_t> chunk) {
        e.UpdateBatch(chunk);
      });
}

TEST(BatchEquivalence, L0Sampler) {
  // Signed weights, including zero-sum cancellations of earlier inserts.
  Rng rng(21);
  constexpr std::uint64_t kUniverse = 1u << 12;
  std::vector<std::uint64_t> indices;
  std::vector<std::int64_t> weights;
  for (std::size_t i = 0; i < kEvents / 4; ++i) {
    indices.push_back(rng.UniformU64(kUniverse));
    weights.push_back(static_cast<std::int64_t>(rng.UniformU64(5)) - 2);
  }

  ForEachSimdLevel("l0_sampler", [&](SimdLevel level) {
    L0Sampler scalar_side(kUniverse, 0.05, 7);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      scalar_side.Update(indices[i], weights[i]);
    }

    L0Sampler batch_side(kUniverse, 0.05, 7);
    std::size_t chunk_index = 0;
    for (std::size_t i = 0; i < indices.size();) {
      const std::size_t want =
          kChunkSizes[chunk_index % std::size(kChunkSizes)];
      const std::size_t n = std::min(want, indices.size() - i);
      batch_side.UpdateBatch(&indices[i], &weights[i], n);
      i += n;
      ++chunk_index;
    }

    const std::vector<std::uint8_t> batch_bytes = Serialized(batch_side);
    EXPECT_EQ(Serialized(scalar_side), batch_bytes)
        << "l0_sampler @ " << SimdLevelName(level);
    return batch_bytes;
  });
}

TEST(BatchEquivalence, CashRegister) {
  Rng rng(23);
  constexpr std::uint64_t kUniverse = 1u << 12;
  std::vector<CitationEvent> events;
  for (std::size_t i = 0; i < 4000; ++i) {
    // delta == 0 events must be skipped by both sides.
    const std::int64_t delta =
        i % 29 == 0 ? 0 : static_cast<std::int64_t>(1 + rng.UniformU64(3));
    events.push_back(CitationEvent{rng.UniformU64(kUniverse), delta});
  }

  CashRegisterOptions options;
  options.num_samplers_override = 8;
  const auto make = [&] {
    return CashRegisterEstimator::Create(0.3, 0.2, kUniverse, 17, options)
        .value();
  };

  ForEachSimdLevel("cash_register", [&](SimdLevel level) {
    auto scalar_side = make();
    for (const CitationEvent& event : events) {
      scalar_side.Update(event.paper, event.delta);
    }

    auto batch_side = make();
    BatchArena arena;
    std::size_t chunk_index = 0;
    for (std::size_t i = 0; i < events.size();) {
      const std::size_t want =
          kChunkSizes[chunk_index % std::size(kChunkSizes)];
      const std::size_t n = std::min(want, events.size() - i);
      batch_side.UpdateBatch(std::span<const CitationEvent>(&events[i], n),
                             arena);
      i += n;
      ++chunk_index;
    }

    const std::vector<std::uint8_t> batch_bytes = Serialized(batch_side);
    EXPECT_EQ(Serialized(scalar_side), batch_bytes)
        << "cash_register @ " << SimdLevelName(level);
    return batch_bytes;
  });
}

std::vector<PaperTuple> MakePapers(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PaperTuple> papers;
  papers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PaperTuple paper;
    paper.paper = i;
    paper.citations = rng.UniformU64(500);
    const std::size_t num_authors = 1 + rng.UniformU64(3);
    for (std::size_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(rng.UniformU64(200));
    }
    papers.push_back(paper);
  }
  return papers;
}

template <typename Sketch>
void ExpectPaperBatchIdentical(const Sketch& proto,
                               const std::vector<PaperTuple>& papers) {
  ForEachSimdLevel("paper_batch", [&](SimdLevel level) {
    Sketch scalar_side = proto;
    for (const PaperTuple& paper : papers) scalar_side.AddPaper(paper);

    Sketch batch_side = proto;
    std::size_t chunk_index = 0;
    for (std::size_t i = 0; i < papers.size();) {
      const std::size_t want =
          kChunkSizes[chunk_index % std::size(kChunkSizes)];
      const std::size_t n = std::min(want, papers.size() - i);
      batch_side.AddPaperBatch(std::span<const PaperTuple>(&papers[i], n));
      i += n;
      ++chunk_index;
    }

    const std::vector<std::uint8_t> batch_bytes = Serialized(batch_side);
    EXPECT_EQ(Serialized(scalar_side), batch_bytes)
        << "paper_batch @ " << SimdLevelName(level);
    return batch_bytes;
  });
}

TEST(BatchEquivalence, HeavyHitters) {
  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.2;
  options.max_papers = 1u << 12;
  ExpectPaperBatchIdentical(HeavyHitters::Create(options, 11).value(),
                            MakePapers(2000, 25));
}

// A standalone detector has no batch call: its caller hashes the ids.
// Its state depends only on the papers it saw, so the same papers fed
// in stream order with scalar-hashed priorities and shuffled with
// batch-hashed priorities must serialize to the same bytes.
TEST(BatchEquivalence, OneHeavyHitter) {
  OneHeavyHitter::Options options;
  const OneHeavyHitter proto = OneHeavyHitter::Create(options).value();
  const TabulationHash priority(13);
  const std::vector<PaperTuple> papers = MakePapers(2000, 27);
  ForEachSimdLevel("one_heavy_hitter", [&](SimdLevel level) {
    OneHeavyHitter in_order = proto;
    for (const PaperTuple& paper : papers) {
      in_order.AddPaper(paper, priority(paper.paper));
    }

    std::vector<PaperTuple> shuffled = papers;
    Rng rng(29);
    Shuffle(shuffled, rng);
    std::vector<std::uint64_t> ids(shuffled.size());
    std::vector<std::uint64_t> priorities(shuffled.size());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      ids[i] = shuffled[i].paper;
    }
    priority.HashBatch(ids.data(), priorities.data(), ids.size());
    OneHeavyHitter reordered = proto;
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      reordered.AddPaper(shuffled[i], priorities[i]);
    }

    const std::vector<std::uint8_t> reordered_bytes = Serialized(reordered);
    EXPECT_EQ(Serialized(in_order), reordered_bytes)
        << "one_heavy_hitter @ " << SimdLevelName(level);
    return reordered_bytes;
  });
}

}  // namespace
}  // namespace himpact
