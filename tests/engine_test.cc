// Fork-join shard set: equivalence with single-instance ingestion, the
// SplitMix routing and per-shard pushed counts, mid-stream merges, and
// the manifest + N-envelope checkpoint round trip.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/cash_register.h"
#include "core/exponential_histogram.h"
#include "engine/shard_set.h"
#include "engine/traits.h"
#include "heavy/heavy_hitters.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "stream/types.h"

namespace himpact {
namespace {

// --- construction -----------------------------------------------------------

using AggregateShards =
    ShardSet<AggregateEngineTraits<ExponentialHistogramEstimator>>;
using CashShards = ShardSet<CashRegisterEngineTraits<CashRegisterEstimator>>;
using PaperShards = ShardSet<PaperEngineTraits<HeavyHitters>>;

AggregateShards MakeAggregateShards(std::size_t shards, double eps,
                                    std::uint64_t max_h) {
  auto set = AggregateShards::Create(shards, 64, [&](std::size_t) {
    return ExponentialHistogramEstimator::Create(eps, max_h).value();
  });
  EXPECT_TRUE(set.ok());
  return std::move(set).value();
}

TEST(ShardSetTest, RejectsBadGeometry) {
  const auto factory = [](std::size_t) {
    return ExponentialHistogramEstimator::Create(0.1, 100).value();
  };
  EXPECT_FALSE(AggregateShards::Create(0, 256, factory).ok());
  EXPECT_FALSE(AggregateShards::Create(2, 0, factory).ok());
  EXPECT_TRUE(AggregateShards::Create(1, 1, factory).ok());
}

// --- equivalence with single-instance ingestion -----------------------------

TEST(ShardSetTest, AggregateMatchesSingleInstanceExactly) {
  constexpr double kEps = 0.1;
  constexpr std::uint64_t kMaxH = 20000;
  auto whole = ExponentialHistogramEstimator::Create(kEps, kMaxH).value();
  AggregateShards shards = MakeAggregateShards(3, kEps, kMaxH);

  Rng rng(71);
  const ZipfSampler zipf(10000, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t value = zipf.Sample(rng);
    whole.Add(value);
    shards.Add(value);
  }

  const ExponentialHistogramEstimator merged = shards.Merged();
  EXPECT_DOUBLE_EQ(merged.Estimate(), whole.Estimate());
  for (int level = 0; level < whole.grid().num_levels(); ++level) {
    EXPECT_EQ(merged.Counter(level), whole.Counter(level));
  }
}

TEST(ShardSetTest, CashRegisterMatchesSingleInstanceExactly) {
  CashRegisterOptions cash_options;
  cash_options.num_samplers_override = 8;
  const auto make = [&] {
    return CashRegisterEstimator::Create(0.2, 0.1, 500, 77, cash_options)
        .value();
  };
  auto whole = make();
  Rng rng(72);
  std::vector<CitationEvent> events;
  for (int i = 0; i < 5000; ++i) {
    events.push_back(CitationEvent{rng.UniformU64(500), 1});
    whole.Update(events.back().paper, events.back().delta);
  }
  // Batch size 1 makes the caller outrun the shard jobs, so batches grow
  // while a job runs and `Add` hits the backlog cap; neither may change
  // the result.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    auto shards =
        CashShards::Create(4, batch, [&](std::size_t) { return make(); });
    ASSERT_TRUE(shards.ok());
    for (const CitationEvent& event : events) shards.value().Add(event);
    // The samplers are linear sketches and every shard saw a disjoint
    // sub-stream, so the merged state matches byte-for-byte semantics.
    EXPECT_DOUBLE_EQ(shards.value().Merged().Estimate(), whole.Estimate())
        << "batch " << batch;
  }
}

TEST(ShardSetTest, PaperStreamKeepsHeavyHitterDetection) {
  HeavyHitters::Options hh_options;
  hh_options.eps = 0.25;
  hh_options.delta = 0.1;
  hh_options.max_papers = 1u << 12;
  const auto make = [&] {
    return HeavyHitters::Create(hh_options, 55).value();
  };
  auto whole = make();
  auto shards =
      PaperShards::Create(3, 32, [&](std::size_t) { return make(); });
  ASSERT_TRUE(shards.ok());

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
    shards.value().Add(paper);
  }
  for (int i = 0; i < 200; ++i) {
    PaperTuple paper;
    paper.paper = next_paper++;
    paper.authors.PushBack(1000 + static_cast<AuthorId>(i));
    paper.citations = 1 + rng.UniformU64(3);
    whole.AddPaper(paper);
    shards.value().Add(paper);
  }

  const HeavyHitters merged = shards.value().Merged();
  // The grid is a pure function of the papers it saw, so sharding and
  // merging reproduce the unsharded grid byte for byte.
  ByteWriter merged_bytes;
  merged.SerializeTo(merged_bytes);
  ByteWriter whole_bytes;
  whole.SerializeTo(whole_bytes);
  EXPECT_EQ(merged_bytes.buffer(), whole_bytes.buffer());
  bool found = false;
  for (const HeavyHitterReport& report : merged.ReportHeavy()) {
    if (report.author == 1) found = true;
  }
  EXPECT_TRUE(found) << "dominant author lost by sharded ingestion";
}

// --- pushed counts and mid-stream merges ------------------------------------

TEST(ShardSetTest, PushedCountsAccountForEveryEvent) {
  AggregateShards shards = MakeAggregateShards(2, 0.2, 1000);
  Rng rng(74);
  constexpr std::uint64_t kEvents = 4096 + 17;  // ends mid-batch
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    shards.Add(1 + rng.UniformU64(999));
  }
  EXPECT_EQ(shards.pushed(0) + shards.pushed(1), kEvents);
  EXPECT_EQ(shards.total_events(), kEvents);
}

TEST(ShardSetTest, MergedSeesEveryEventAndIngestionCanResume) {
  AggregateShards shards = MakeAggregateShards(2, 0.2, 1000);
  auto whole = ExponentialHistogramEstimator::Create(0.2, 1000).value();
  for (int round = 0; round < 2; ++round) {
    // 500 events leave batches pending mid-stream; the merge must
    // include them and ingestion must carry on after it.
    for (std::uint64_t v = 1; v <= 500; ++v) {
      shards.Add(v % 100 + 1);
      whole.Add(v % 100 + 1);
    }
    const ExponentialHistogramEstimator merged = shards.Merged();
    for (int level = 0; level < whole.grid().num_levels(); ++level) {
      EXPECT_EQ(merged.Counter(level), whole.Counter(level)) << round;
    }
  }
  EXPECT_EQ(shards.total_events(), 1000u);
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

void RemoveShardCheckpoint(const std::string& path, std::size_t shards) {
  std::remove(path.c_str());
  for (std::size_t i = 0; i < shards; ++i) {
    std::remove(AggregateShards::ShardPath(path, i).c_str());
  }
}

TEST(ShardSetTest, CheckpointRestoreRoundTrip) {
  constexpr double kEps = 0.15;
  constexpr std::uint64_t kMaxH = 5000;
  constexpr std::size_t kShards = 3;
  const std::string path = TempPath("roundtrip");
  RemoveShardCheckpoint(path, kShards);

  auto whole = ExponentialHistogramEstimator::Create(kEps, kMaxH).value();
  Rng rng(75);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 6000; ++i) stream.push_back(1 + rng.UniformU64(4000));

  // First half, then checkpoint mid-stream (with a batch still pending).
  std::vector<std::uint64_t> pushed_at_checkpoint(kShards);
  {
    AggregateShards shards = MakeAggregateShards(kShards, kEps, kMaxH);
    for (std::size_t i = 0; i < stream.size() / 2; ++i) {
      shards.Add(stream[i]);
    }
    ASSERT_TRUE(shards.CheckpointTo(path).ok());
    for (std::size_t i = 0; i < kShards; ++i) {
      pushed_at_checkpoint[i] = shards.pushed(i);
    }
  }

  // Manifest readable on its own.
  const auto manifest = AggregateShards::ReadManifest(path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().num_shards, kShards);
  EXPECT_EQ(manifest.value().total_events, stream.size() / 2);

  // Resume on a fresh set and finish the stream.
  {
    AggregateShards shards = MakeAggregateShards(kShards, kEps, kMaxH);
    ASSERT_TRUE(shards.RestoreFrom(path).ok());
    EXPECT_EQ(shards.total_events(), stream.size() / 2);
    for (std::size_t i = 0; i < kShards; ++i) {
      EXPECT_EQ(shards.pushed(i), pushed_at_checkpoint[i]) << i;
    }
    for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
      shards.Add(stream[i]);
    }

    for (const std::uint64_t value : stream) whole.Add(value);
    const ExponentialHistogramEstimator merged = shards.Merged();
    EXPECT_DOUBLE_EQ(merged.Estimate(), whole.Estimate());
    for (int level = 0; level < whole.grid().num_levels(); ++level) {
      EXPECT_EQ(merged.Counter(level), whole.Counter(level));
    }
  }
  RemoveShardCheckpoint(path, kShards);
}

TEST(ShardSetTest, StaticRoutingIsSplitMixModulo) {
  constexpr std::size_t kShards = 3;
  AggregateShards shards = MakeAggregateShards(kShards, 0.2, 10000);
  Rng rng(123);
  std::vector<std::uint64_t> expected(kShards, 0);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t value = 1 + rng.UniformU64(100000);
    ++expected[SplitMix64(value) % kShards];
    shards.Add(value);
  }
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(shards.pushed(i), expected[i]) << i;
  }
}

TEST(ShardSetTest, RestoreRejectsShardCountMismatch) {
  const std::string path = TempPath("mismatch");
  RemoveShardCheckpoint(path, 4);
  {
    AggregateShards shards = MakeAggregateShards(2, 0.2, 1000);
    for (std::uint64_t v = 1; v <= 100; ++v) shards.Add(v);
    ASSERT_TRUE(shards.CheckpointTo(path).ok());
  }
  AggregateShards wrong = MakeAggregateShards(4, 0.2, 1000);
  EXPECT_FALSE(wrong.RestoreFrom(path).ok());
  RemoveShardCheckpoint(path, 4);
}

TEST(ShardSetTest, RestoreRejectsDamagedShardEnvelope) {
  const std::string path = TempPath("damaged");
  RemoveShardCheckpoint(path, 2);
  {
    AggregateShards shards = MakeAggregateShards(2, 0.2, 1000);
    for (std::uint64_t v = 1; v <= 100; ++v) shards.Add(v);
    ASSERT_TRUE(shards.CheckpointTo(path).ok());
  }
  // Flip one byte mid-file in shard 1's envelope; the CRC must catch it.
  const std::string shard_path = AggregateShards::ShardPath(path, 1);
  std::FILE* file = std::fopen(shard_path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, 40, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, file);
  std::fclose(file);

  AggregateShards shards = MakeAggregateShards(2, 0.2, 1000);
  EXPECT_FALSE(shards.RestoreFrom(path).ok());
  RemoveShardCheckpoint(path, 2);
}

}  // namespace
}  // namespace himpact
