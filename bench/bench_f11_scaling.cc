// F11 — Scaling curve for the sharded ingestion engine (BENCHMARKS.md).
// One BENCH line group:
//
//   f11_shard_scaling    shards in {1,2,4,8}: end-to-end events/sec
//                        (the f2 axis) and apply-ns/event from the
//                        per-shard apply_nanos counters (the f6 axis),
//                        with the worker-thread accounting needed to
//                        read the curve on a small host.
//
//   ./bench_f11_scaling            # full sizing
//   ./bench_f11_scaling --quick    # CI sizing, same schema

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cash_register.h"
#include "engine/sharded_engine.h"
#include "engine/traits.h"
#include "hash/cpu_features.h"
#include "random/rng.h"
#include "workload/citation_vectors.h"

namespace {

using namespace himpact;

using Engine = ShardedEngine<CashRegisterEngineTraits<CashRegisterEstimator>>;

constexpr std::uint64_t kUniverse = 1 << 12;

Engine MakeEngine(const EngineOptions& options) {
  CashRegisterOptions cr;
  cr.num_samplers_override = 16;
  return Engine::Create(options,
                        [&cr](std::size_t) {
                          return CashRegisterEstimator::Create(0.2, 0.1,
                                                               kUniverse, 13,
                                                               cr)
                              .value();
                        })
      .value();
}

struct RunResult {
  double events_per_sec = 0.0;
  double apply_ns_per_event = 0.0;
};

RunResult RunOnce(const EngineOptions& options,
                  const std::vector<CitationEvent>& events) {
  Engine engine = MakeEngine(options);
  engine.Start();
  const auto start = std::chrono::steady_clock::now();
  for (const CitationEvent& event : events) engine.Ingest(event);
  engine.Finish();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult result;
  std::uint64_t apply_total = 0;
  std::uint64_t consumed = 0;
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    const ShardCounters counters = engine.shard_counters(s);
    apply_total += counters.apply_nanos;
    consumed += counters.events_consumed;
  }
  result.events_per_sec = static_cast<double>(events.size()) / seconds;
  result.apply_ns_per_event =
      consumed == 0 ? 0.0
                    : static_cast<double>(apply_total) /
                          static_cast<double>(consumed);
  return result;
}

// Uniform tenant stream, the f2 sizing: per-event work dominates queue
// traffic (16 samplers), so the curve measures scaling.
std::vector<CitationEvent> UniformStream(std::size_t num_events) {
  Rng rng(21);
  std::vector<CitationEvent> events;
  events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    events.push_back(CitationEvent{rng.UniformU64(kUniverse), 1});
  }
  return events;
}

void RunShardScaling(std::size_t num_events) {
  const std::vector<CitationEvent> events = UniformStream(num_events);
  const unsigned hw = std::thread::hardware_concurrency();
  double single_rate = 0.0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    EngineOptions options;
    options.num_shards = shards;
    options.batch_size = 256;
    options.queue_capacity = 4096;
    const RunResult result = RunOnce(options, events);
    if (shards == 1) single_rate = result.events_per_sec;
    // worker_threads = consumer threads spawned; effective_workers caps
    // at the host's cores (producer included) — past that the curve
    // measures oversubscription, not scaling.
    std::printf(
        "BENCH{\"bench\":\"f11_shard_scaling\",\"shards\":%zu,"
        "\"events\":%zu,\"events_per_sec\":%.0f,\"speedup_vs_1\":%.2f,"
        "\"apply_ns_per_event\":%.2f,\"worker_threads\":%zu,"
        "\"effective_workers\":%u,\"hardware_concurrency\":%u,"
        "\"simd\":\"%s\"}\n",
        shards, events.size(), result.events_per_sec,
        single_rate > 0.0 ? result.events_per_sec / single_rate : 1.0,
        result.apply_ns_per_event, shards,
        std::min<unsigned>(static_cast<unsigned>(shards) + 1,
                           std::max(1u, hw)),
        hw, SimdLevelName(ActiveSimdLevel()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  RunShardScaling(quick ? (1u << 14) : (1u << 17));
  return 0;
}
