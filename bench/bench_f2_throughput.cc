// F2 — Throughput of every estimator (google-benchmark): items/second of
// the streaming Add/Update paths as a function of eps, plus two sharded
// ingestion sweeps on the fork-join shard set (engine/shard_set.h) that
// report BENCH{...} json lines before the google-benchmark table: shards
// 1 -> N at fixed batch size, and per-shard batch size B in
// {1, 64, 256, 1024} at fixed shards (wall-clock ns/event). Run in
// Release for meaningful numbers.
//
//   ./bench_f2_throughput --shards 8      # sweep 1,2,4,8 shards
//
// The sweep defaults to hardware_concurrency; speedups only manifest
// when the machine actually has that many cores (the json reports
// hardware_concurrency so results are interpretable).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cash_register.h"
#include "engine/shard_set.h"
#include "engine/task_runtime.h"
#include "engine/traits.h"
#include "core/exact.h"
#include "core/exponential_histogram.h"
#include "core/random_order.h"
#include "core/shifting_window.h"
#include "core/sliding_window_hindex.h"
#include "hash/k_independent.h"
#include "heavy/heavy_hitters.h"
#include "sketch/dgim.h"
#include "sketch/l0_sampler.h"
#include "random/rng.h"
#include "workload/academic.h"
#include "workload/citation_vectors.h"

namespace {

using namespace himpact;

AggregateStream SharedValues() {
  static const AggregateStream* values = [] {
    Rng rng(1);
    VectorSpec spec;
    spec.kind = VectorKind::kZipf;
    spec.n = 1 << 16;
    spec.max_value = 1u << 20;
    return new AggregateStream(MakeVector(spec, rng));
  }();
  return *values;
}

void BM_ExactIncremental(benchmark::State& state) {
  const AggregateStream values = SharedValues();
  for (auto _ : state) {
    IncrementalExactHIndex estimator;
    for (const std::uint64_t v : values) estimator.Add(v);
    benchmark::DoNotOptimize(estimator.HIndex());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_ExactIncremental);

void BM_ExponentialHistogram(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  const AggregateStream values = SharedValues();
  for (auto _ : state) {
    auto estimator =
        ExponentialHistogramEstimator::Create(eps, values.size()).value();
    for (const std::uint64_t v : values) estimator.Add(v);
    benchmark::DoNotOptimize(estimator.Estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_ExponentialHistogram)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

void BM_ShiftingWindow(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  const AggregateStream values = SharedValues();
  for (auto _ : state) {
    auto estimator = ShiftingWindowEstimator::Create(eps).value();
    for (const std::uint64_t v : values) estimator.Add(v);
    benchmark::DoNotOptimize(estimator.Estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_ShiftingWindow)->Arg(5)->Arg(10)->Arg(20)->Arg(50);

void BM_RandomOrder(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  const AggregateStream values = SharedValues();
  for (auto _ : state) {
    RandomOrderOptions options;
    options.beta_override = 400.0;
    auto estimator =
        RandomOrderEstimator::Create(eps, values.size(), options).value();
    for (const std::uint64_t v : values) estimator.Add(v);
    benchmark::DoNotOptimize(estimator.Estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_RandomOrder)->Arg(5)->Arg(10)->Arg(20);

void BM_CashRegisterUpdate(benchmark::State& state) {
  const std::size_t samplers = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const std::uint64_t universe = 1 << 12;
  std::vector<CitationEvent> events;
  for (int i = 0; i < 1 << 12; ++i) {
    events.push_back(CitationEvent{rng.UniformU64(universe), 1});
  }
  CashRegisterOptions options;
  options.num_samplers_override = samplers;
  auto estimator =
      CashRegisterEstimator::Create(0.2, 0.1, universe, 3, options).value();
  for (auto _ : state) {
    for (const CitationEvent& event : events) {
      estimator.Update(event.paper, event.delta);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_CashRegisterUpdate)->Arg(1)->Arg(8)->Arg(32);

void BM_HeavyHittersAddPaper(benchmark::State& state) {
  Rng rng(4);
  AcademicConfig config;
  config.num_authors = 1000;
  config.max_papers = 5;
  const PaperStream papers = MakeAcademicCorpus(config, {}, rng);
  HeavyHitters::Options options;
  options.eps = 1.0 / static_cast<double>(state.range(0));
  options.max_papers = 1u << 16;
  auto sketch = HeavyHitters::Create(options, 5).value();
  for (auto _ : state) {
    for (const PaperTuple& paper : papers) sketch.AddPaper(paper);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(papers.size()));
}
BENCHMARK(BM_HeavyHittersAddPaper)->Arg(3)->Arg(5);

// --- substrate microbenchmarks ------------------------------------------------

void BM_KIndependentHash(benchmark::State& state) {
  const KIndependentHash hash(static_cast<int>(state.range(0)), 1);
  std::uint64_t x = 0x12345678;
  for (auto _ : state) {
    x = hash(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KIndependentHash)->Arg(2)->Arg(4)->Arg(8);

void BM_L0SamplerUpdate(benchmark::State& state) {
  L0Sampler sampler(1 << 16, 0.05, 7);
  Rng rng(7);
  std::vector<std::uint64_t> indices;
  for (int i = 0; i < 1 << 12; ++i) {
    indices.push_back(rng.UniformU64(1 << 16));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.Update(indices[i++ & ((1 << 12) - 1)], 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L0SamplerUpdate);

void BM_DgimAdd(benchmark::State& state) {
  DgimCounter counter(1 << 16, 0.1);
  Rng rng(8);
  bool bit = false;
  for (auto _ : state) {
    bit = !bit;
    counter.Add(bit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DgimAdd);

void BM_SlidingWindowAdd(benchmark::State& state) {
  auto estimator = SlidingWindowHIndex::Create(0.2, 1 << 14).value();
  Rng rng(9);
  for (auto _ : state) {
    estimator.Add(rng.UniformU64(1 << 14));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingWindowAdd);

// --- sharded ingestion sweep -------------------------------------------------

using CashShards = ShardSet<CashRegisterEngineTraits<CashRegisterEstimator>>;

// A cash-register stream and a deliberately expensive estimator factory
// (16 samplers), so per-event work dominates the fork-join overhead and
// the sweeps measure scaling rather than scheduling.
std::vector<CitationEvent> SweepEvents(std::uint64_t seed) {
  constexpr std::uint64_t kUniverse = 1 << 12;
  constexpr std::size_t kEvents = 1 << 17;
  Rng rng(seed);
  std::vector<CitationEvent> events;
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.push_back(CitationEvent{rng.UniformU64(kUniverse), 1});
  }
  return events;
}

CashShards MakeSweepShards(std::size_t shards, std::size_t batch) {
  CashRegisterOptions options;
  options.num_samplers_override = 16;
  return CashShards::Create(shards, batch,
                            [&](std::size_t) {
                              return CashRegisterEstimator::Create(
                                         0.2, 0.1, 1 << 12, 13, options)
                                  .value();
                            })
      .value();
}

// Wall-clock seconds to add every event and flush the last batches.
double IngestSeconds(CashShards& shards,
                     const std::vector<CitationEvent>& events) {
  const auto start = std::chrono::steady_clock::now();
  for (const CitationEvent& event : events) shards.Add(event);
  shards.Flush();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One BENCH json line per shard count: ingest wall-clock throughput.
void RunShardSweep(std::size_t max_shards) {
  const std::vector<CitationEvent> events = SweepEvents(11);
  std::vector<std::size_t> shard_counts;
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    shard_counts.push_back(shards);
  }
  if (shard_counts.empty() || shard_counts.back() != max_shards) {
    shard_counts.push_back(max_shards);
  }

  constexpr std::size_t kBatch = 256;
  double single_shard_rate = 0.0;
  double single_shard_estimate = 0.0;
  for (const std::size_t shards : shard_counts) {
    CashShards set = MakeSweepShards(shards, kBatch);
    const double seconds = IngestSeconds(set, events);
    const double rate = static_cast<double>(events.size()) / seconds;
    const auto merge_start = std::chrono::steady_clock::now();
    const double estimate = set.Merged().Estimate();
    const double merge_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - merge_start)
                                .count();
    if (shards == 1) {
      single_shard_rate = rate;
      single_shard_estimate = estimate;
    }
    // `worker_threads` is the shared task runtime's pool size;
    // `effective_workers` is how many shard jobs can run at once (one per
    // shard, capped by the pool), so a flat curve past the pool size reads
    // as oversubscription rather than a scaling failure.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t pool = TaskRuntime::Shared().num_workers();
    std::printf(
        "BENCH{\"bench\":\"f2_sharded_engine\",\"shards\":%zu,\"batch\":%zu,"
        "\"events\":%zu,\"events_per_sec\":%.0f,\"speedup_vs_1\":%.2f,"
        "\"merge_ms\":%.3f,\"estimate\":%.2f,"
        "\"single_shard_estimate\":%.2f,\"worker_threads\":%zu,"
        "\"effective_workers\":%zu,\"hardware_concurrency\":%u}\n",
        shards, kBatch, events.size(), rate,
        single_shard_rate > 0.0 ? rate / single_shard_rate : 1.0, merge_ms,
        estimate, single_shard_estimate, pool, std::min(shards, pool), hw);
  }
}

// One BENCH json line per batch size B: the same stream at fixed shard
// count, so the cost of the batched hot path (engine/traits.h
// ApplyBatch) and of each job dispatch is visible as wall-clock
// ns/event.
void RunBatchSweep(std::size_t max_shards) {
  const std::vector<CitationEvent> events = SweepEvents(12);
  const std::size_t shards = std::min<std::size_t>(2, max_shards);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{64},
                                  std::size_t{256}, std::size_t{1024}}) {
    CashShards set = MakeSweepShards(shards, batch);
    const double seconds = IngestSeconds(set, events);
    std::printf(
        "BENCH{\"bench\":\"f2_batch_sweep\",\"shards\":%zu,\"batch\":%zu,"
        "\"events\":%zu,\"events_per_sec\":%.0f,\"ns_per_event\":%.2f}\n",
        shards, batch, events.size(),
        static_cast<double>(events.size()) / seconds,
        seconds * 1e9 / static_cast<double>(events.size()));
  }
}

}  // namespace

// Custom main: google-benchmark rejects flags it does not know, so
// `--shards N` is parsed and stripped here before Initialize.
int main(int argc, char** argv) {
  std::size_t max_shards =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--shards") == 0 && it + 1 != args.end()) {
      const unsigned long long parsed = std::strtoull(*(it + 1), nullptr, 10);
      if (parsed >= 1 && parsed <= 256) {
        max_shards = static_cast<std::size_t>(parsed);
      }
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  RunShardSweep(max_shards);
  RunBatchSweep(max_shards);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
