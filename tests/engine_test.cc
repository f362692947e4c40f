// Sharded ingestion engine: the SPSC ring's queue discipline, the
// engine's equivalence with single-threaded ingestion, its per-shard
// counters, the Drain barrier, and the manifest + N-envelope checkpoint
// round trip.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cash_register.h"
#include "core/exponential_histogram.h"
#include "engine/sharded_engine.h"
#include "engine/spsc_ring.h"
#include "engine/traits.h"
#include "heavy/heavy_hitters.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "stream/types.h"

namespace himpact {
namespace {

// --- SPSC ring --------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);
  EXPECT_EQ(SpscRing<int>(4096).capacity(), 4096u);
}

TEST(SpscRingTest, PushUntilFullThenPopBatch) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99)) << "ring should be full";

  int out[8] = {};
  EXPECT_EQ(ring.PopBatch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.PopBatch(out, 8), 0u) << "ring should be empty";
}

TEST(SpscRingTest, PopBatchHonorsMaxItems) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.TryPush(i));
  int out[8] = {};
  EXPECT_EQ(ring.PopBatch(out, 4), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  EXPECT_EQ(ring.PopBatch(out, 4), 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
}

TEST(SpscRingTest, WrapAroundKeepsFifoOrder) {
  SpscRing<int> ring(4);
  int out[4] = {};
  int next = 0;
  int expected = 0;
  // Repeatedly half-fill and half-drain so the indices wrap many times.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(next++));
    const std::size_t taken = ring.PopBatch(out, 3);
    ASSERT_EQ(taken, 3u);
    for (std::size_t i = 0; i < taken; ++i) EXPECT_EQ(out[i], expected++);
  }
}

// --- engine construction ----------------------------------------------------

using AggregateEngine =
    ShardedEngine<AggregateEngineTraits<ExponentialHistogramEstimator>>;
using CashEngine =
    ShardedEngine<CashRegisterEngineTraits<CashRegisterEstimator>>;
using PaperEngine = ShardedEngine<PaperEngineTraits<HeavyHitters>>;

AggregateEngine MakeAggregateEngine(std::size_t shards, double eps,
                                    std::uint64_t max_h) {
  EngineOptions options;
  options.num_shards = shards;
  options.queue_capacity = 512;
  options.batch_size = 64;
  auto engine = AggregateEngine::Create(options, [&](std::size_t) {
    return ExponentialHistogramEstimator::Create(eps, max_h).value();
  });
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

TEST(ShardedEngineTest, RejectsBadGeometry) {
  const auto factory = [](std::size_t) {
    return ExponentialHistogramEstimator::Create(0.1, 100).value();
  };
  EngineOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(AggregateEngine::Create(options, factory).ok());
  options.num_shards = 2;
  options.batch_size = 0;
  EXPECT_FALSE(AggregateEngine::Create(options, factory).ok());
  options.batch_size = 256;
  options.queue_capacity = 8;
  EXPECT_FALSE(AggregateEngine::Create(options, factory).ok())
      << "queue must hold at least one batch";
}

// --- equivalence with single-threaded ingestion -----------------------------

TEST(ShardedEngineTest, AggregateMatchesSingleInstanceExactly) {
  constexpr double kEps = 0.1;
  constexpr std::uint64_t kMaxH = 20000;
  auto whole = ExponentialHistogramEstimator::Create(kEps, kMaxH).value();
  AggregateEngine engine = MakeAggregateEngine(3, kEps, kMaxH);
  engine.Start();

  Rng rng(71);
  const ZipfSampler zipf(10000, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t value = zipf.Sample(rng);
    whole.Add(value);
    engine.Ingest(value);
  }
  engine.Finish();

  const ExponentialHistogramEstimator merged = engine.MergedEstimator();
  EXPECT_DOUBLE_EQ(merged.Estimate(), whole.Estimate());
  for (int level = 0; level < whole.grid().num_levels(); ++level) {
    EXPECT_EQ(merged.Counter(level), whole.Counter(level));
  }
  EXPECT_GE(engine.last_merge_seconds(), 0.0);
}

TEST(ShardedEngineTest, CashRegisterMatchesSingleInstanceExactly) {
  CashRegisterOptions cash_options;
  cash_options.num_samplers_override = 8;
  const auto make = [&] {
    return CashRegisterEstimator::Create(0.2, 0.1, 500, 77, cash_options)
        .value();
  };
  auto whole = make();

  EngineOptions options;
  options.num_shards = 4;
  options.queue_capacity = 256;
  options.batch_size = 32;
  auto engine =
      CashEngine::Create(options, [&](std::size_t) { return make(); });
  ASSERT_TRUE(engine.ok());
  engine.value().Start();

  Rng rng(72);
  for (int i = 0; i < 5000; ++i) {
    const CitationEvent event{rng.UniformU64(500), 1};
    whole.Update(event.paper, event.delta);
    engine.value().Ingest(event);
  }
  engine.value().Finish();
  // The samplers are linear sketches and every shard saw a disjoint
  // sub-stream, so the merged state matches byte-for-byte semantics.
  EXPECT_DOUBLE_EQ(engine.value().MergedEstimator().Estimate(),
                   whole.Estimate());
}

TEST(ShardedEngineTest, PaperStreamKeepsHeavyHitterDetection) {
  HeavyHitters::Options hh_options;
  hh_options.eps = 0.25;
  hh_options.delta = 0.1;
  hh_options.max_papers = 1u << 12;
  const auto make = [&] {
    return HeavyHitters::Create(hh_options, 55).value();
  };
  auto whole = make();

  EngineOptions options;
  options.num_shards = 3;
  options.queue_capacity = 256;
  options.batch_size = 32;
  auto engine =
      PaperEngine::Create(options, [&](std::size_t) { return make(); });
  ASSERT_TRUE(engine.ok());
  engine.value().Start();

  // One author (id 1) with 60 well-cited papers dominates a background of
  // single-paper authors.
  Rng rng(73);
  std::uint64_t next_paper = 1;
  for (int i = 0; i < 60; ++i) {
    PaperTuple paper;
    paper.paper = next_paper++;
    paper.authors.PushBack(1);
    paper.citations = 100;
    whole.AddPaper(paper);
    engine.value().Ingest(paper);
  }
  for (int i = 0; i < 200; ++i) {
    PaperTuple paper;
    paper.paper = next_paper++;
    paper.authors.PushBack(1000 + static_cast<AuthorId>(i));
    paper.citations = 1 + rng.UniformU64(3);
    whole.AddPaper(paper);
    engine.value().Ingest(paper);
  }
  engine.value().Finish();

  const HeavyHitters merged = engine.value().MergedEstimator();
  EXPECT_EQ(merged.num_papers(), whole.num_papers());
  // The dominant author must survive sharding (samples are re-randomized
  // by the reservoir merge, so reports need not be identical).
  bool found = false;
  for (const HeavyHitterReport& report : merged.ReportHeavy()) {
    if (report.author == 1) found = true;
  }
  EXPECT_TRUE(found) << "dominant author lost by sharded ingestion";
}

// --- counters and the Drain barrier -----------------------------------------

TEST(ShardedEngineTest, CountersAccountForEveryEvent) {
  AggregateEngine engine = MakeAggregateEngine(2, 0.2, 1000);
  engine.Start();
  Rng rng(74);
  constexpr std::uint64_t kEvents = 4096;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    engine.Ingest(1 + rng.UniformU64(999));
  }
  engine.Drain();

  std::uint64_t pushed = 0;
  std::uint64_t consumed = 0;
  std::uint64_t batches = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const ShardCounters counters = engine.shard_counters(s);
    EXPECT_EQ(counters.events_pushed, counters.events_consumed)
        << "shard " << s << " not drained";
    pushed += counters.events_pushed;
    consumed += counters.events_consumed;
    batches += counters.batches;
  }
  EXPECT_EQ(pushed, kEvents);
  EXPECT_EQ(consumed, kEvents);
  EXPECT_GE(batches, 1u);
  engine.Finish();
}

TEST(ShardedEngineTest, TinyQueueForcesStallsButLosesNothing) {
  EngineOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4;  // deliberately pathological
  options.batch_size = 4;
  auto engine = AggregateEngine::Create(options, [](std::size_t) {
    return ExponentialHistogramEstimator::Create(0.2, 100000).value();
  });
  ASSERT_TRUE(engine.ok());
  engine.value().Start();
  constexpr std::uint64_t kEvents = 50000;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    engine.value().Ingest(1 + (i % 1000));
  }
  engine.value().Finish();
  EXPECT_EQ(engine.value().total_events(), kEvents);
  std::uint64_t consumed = 0;
  for (std::size_t s = 0; s < engine.value().num_shards(); ++s) {
    consumed += engine.value().shard_counters(s).events_consumed;
  }
  EXPECT_EQ(consumed, kEvents);
}

TEST(ShardedEngineTest, DrainIsABarrierAndIngestionCanResume) {
  AggregateEngine engine = MakeAggregateEngine(2, 0.2, 1000);
  engine.Start();
  for (std::uint64_t v = 1; v <= 500; ++v) engine.Ingest(v % 100 + 1);
  engine.Drain();
  const double mid_estimate = engine.MergedEstimator().Estimate();
  EXPECT_GT(mid_estimate, 0.0);
  for (std::uint64_t v = 1; v <= 500; ++v) engine.Ingest(v % 100 + 1);
  engine.Finish();
  EXPECT_EQ(engine.total_events(), 1000u);
  EXPECT_GE(engine.MergedEstimator().Estimate(), mid_estimate);
}

// --- checkpoint round trip --------------------------------------------------

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (path.back() != '/') path += '/';
  path += "himpact_engine_test_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(
      ::testing::UnitTest::GetInstance()->random_seed()));
  return path;
}

void RemoveEngineCheckpoint(const std::string& path, std::size_t shards) {
  std::remove(path.c_str());
  for (std::size_t i = 0; i < shards; ++i) {
    std::remove(AggregateEngine::ShardPath(path, i).c_str());
  }
}

TEST(ShardedEngineTest, CheckpointRestoreRoundTrip) {
  constexpr double kEps = 0.15;
  constexpr std::uint64_t kMaxH = 5000;
  constexpr std::size_t kShards = 3;
  const std::string path = TempPath("roundtrip");
  RemoveEngineCheckpoint(path, kShards);

  auto whole = ExponentialHistogramEstimator::Create(kEps, kMaxH).value();
  Rng rng(75);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 6000; ++i) stream.push_back(1 + rng.UniformU64(4000));

  // First half on a live engine, then checkpoint mid-stream.
  {
    AggregateEngine engine = MakeAggregateEngine(kShards, kEps, kMaxH);
    engine.Start();
    for (std::size_t i = 0; i < stream.size() / 2; ++i) {
      engine.Ingest(stream[i]);
    }
    engine.Drain();
    ASSERT_TRUE(engine.CheckpointTo(path).ok());
    engine.Finish();
  }

  // Manifest readable on its own.
  const auto manifest = AggregateEngine::ReadManifest(path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().num_shards, kShards);
  EXPECT_EQ(manifest.value().total_events, stream.size() / 2);

  // Resume on a fresh engine and finish the stream.
  {
    AggregateEngine engine = MakeAggregateEngine(kShards, kEps, kMaxH);
    ASSERT_TRUE(engine.RestoreFrom(path).ok());
    EXPECT_EQ(engine.total_events(), stream.size() / 2);
    engine.Start();
    for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
      engine.Ingest(stream[i]);
    }
    engine.Finish();

    for (const std::uint64_t value : stream) whole.Add(value);
    const ExponentialHistogramEstimator merged = engine.MergedEstimator();
    EXPECT_DOUBLE_EQ(merged.Estimate(), whole.Estimate());
    for (int level = 0; level < whole.grid().num_levels(); ++level) {
      EXPECT_EQ(merged.Counter(level), whole.Counter(level));
    }
  }
  RemoveEngineCheckpoint(path, kShards);
}

TEST(ShardedEngineTest, StaticRoutingIsSplitMixModulo) {
  constexpr std::size_t kShards = 3;
  AggregateEngine engine = MakeAggregateEngine(kShards, 0.2, 10000);
  engine.Start();
  Rng rng(123);
  std::vector<std::uint64_t> expected(kShards, 0);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t value = 1 + rng.UniformU64(100000);
    ++expected[SplitMix64(value) % kShards];
    engine.Ingest(value);
  }
  engine.Finish();
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(engine.shard_counters(i).events_pushed, expected[i]) << i;
  }
}

TEST(ShardedEngineTest, RestoreRejectsShardCountMismatch) {
  const std::string path = TempPath("mismatch");
  RemoveEngineCheckpoint(path, 4);
  {
    AggregateEngine engine = MakeAggregateEngine(2, 0.2, 1000);
    engine.Start();
    for (std::uint64_t v = 1; v <= 100; ++v) engine.Ingest(v);
    engine.Finish();
    ASSERT_TRUE(engine.CheckpointTo(path).ok());
  }
  AggregateEngine wrong = MakeAggregateEngine(4, 0.2, 1000);
  EXPECT_FALSE(wrong.RestoreFrom(path).ok());
  RemoveEngineCheckpoint(path, 4);
}

TEST(ShardedEngineTest, RestoreRejectsDamagedShardEnvelope) {
  const std::string path = TempPath("damaged");
  RemoveEngineCheckpoint(path, 2);
  {
    AggregateEngine engine = MakeAggregateEngine(2, 0.2, 1000);
    engine.Start();
    for (std::uint64_t v = 1; v <= 100; ++v) engine.Ingest(v);
    engine.Finish();
    ASSERT_TRUE(engine.CheckpointTo(path).ok());
  }
  // Flip one byte mid-file in shard 1's envelope; the CRC must catch it.
  const std::string shard_path = AggregateEngine::ShardPath(path, 1);
  std::FILE* file = std::fopen(shard_path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, 40, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, file);
  std::fclose(file);

  AggregateEngine engine = MakeAggregateEngine(2, 0.2, 1000);
  EXPECT_FALSE(engine.RestoreFrom(path).ok());
  RemoveEngineCheckpoint(path, 2);
}

}  // namespace
}  // namespace himpact
