// F4 — Closed-loop load harness for the multi-tenant query service
// (src/service/): worker threads mix ingest and query traffic over a
// Zipf-distributed user population and the harness reports sustained
// qps, query latency quantiles, tier occupancy, and memory-budget
// compliance as one BENCH json line. Run in Release for meaningful
// numbers.
//
//   ./bench_f4_service_qps                         # 1M users, 2M ops
//   ./bench_f4_service_qps --users 2000000 --ops 8000000 --threads 8
//   ./bench_f4_service_qps --ops 50000 --users 10000   # quick/CI sizing
//
// Each worker is closed-loop (issues its next operation as soon as the
// previous one returns), so reported qps is the service's saturated
// rate at the given thread count, not an offered-load average. The mix
// is --query-permille queries per 1000 operations (default 200);
// queries split 80/15/5 between point lookups, detailed lookups, and
// TopK(10). Ingest draws the user from Zipf(s) — a few users are hot,
// the tail is one-touch cold — and the response count from a discrete
// Pareto, the citation-style workload the tiering is designed for.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/latency.h"
#include "service/service.h"

namespace {

using namespace himpact;

struct HarnessOptions {
  std::uint64_t users = 1u << 20;   // >= 1M synthetic users
  std::uint64_t ops = 2u << 20;     // total operations across threads
  std::uint64_t threads = 4;
  std::uint64_t query_permille = 200;  // queries per 1000 ops
  double zipf_s = 1.1;
  std::uint64_t budget_mb = 64;
  std::uint64_t stripes = 16;
  std::uint64_t promote_threshold = 64;
  std::uint64_t seed = 2017;
  bool heavy = false;  // HH grid off by default: the F4 story is the registry
};

bool ParseArgs(int argc, char** argv, HarnessOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_text = [&](const char** out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* text = nullptr;
    if (arg == "--users") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--users", text, 1, 1ull << 40,
                                  &options->users))
        return false;
    } else if (arg == "--ops") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--ops", text, 1, 1ull << 40,
                                  &options->ops))
        return false;
    } else if (arg == "--threads") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--threads", text, 1, 256,
                                  &options->threads))
        return false;
    } else if (arg == "--query-permille") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--query-permille", text, 0, 1000,
                                  &options->query_permille))
        return false;
    } else if (arg == "--zipf-s") {
      if (!next_text(&text) ||
          !ParseDoubleFlag("--zipf-s", text, &options->zipf_s))
        return false;
    } else if (arg == "--budget-mb") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--budget-mb", text, 1, 1u << 20,
                                  &options->budget_mb))
        return false;
    } else if (arg == "--stripes") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--stripes", text, 1, 4096,
                                  &options->stripes))
        return false;
    } else if (arg == "--promote-threshold") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--promote-threshold", text,
                           &options->promote_threshold))
        return false;
    } else if (arg == "--seed") {
      if (!next_text(&text) || !ParseUint64Flag("--seed", text,
                                                &options->seed))
        return false;
    } else if (arg == "--heavy") {
      options->heavy = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Per-operation latency histograms, shared by every worker.
struct Latencies {
  LatencyRecorder ingest;
  LatencyRecorder point;
  LatencyRecorder topk;
};

void Worker(HImpactService& service, const HarnessOptions& options,
            std::uint64_t worker_index, std::atomic<std::uint64_t>& budget,
            Latencies& latencies, std::uint64_t* ingests,
            std::uint64_t* queries) {
  Rng rng(options.seed * 1315423911u + worker_index);
  const ZipfSampler user_sampler(options.users, options.zipf_s);
  const DiscreteParetoSampler value_sampler(1, 1.8, 1u << 20);
  // Claim operations in chunks so the shared counter is touched rarely.
  constexpr std::uint64_t kChunk = 1024;
  for (;;) {
    const std::uint64_t claimed =
        budget.fetch_sub(kChunk, std::memory_order_relaxed);
    if (claimed == 0 || claimed > options.ops) return;  // pool exhausted
    const std::uint64_t batch = claimed < kChunk ? claimed : kChunk;
    for (std::uint64_t i = 0; i < batch; ++i) {
      const bool is_query =
          rng.UniformU64(1000) < options.query_permille;
      const AuthorId user = user_sampler.Sample(rng);
      if (!is_query) {
        const std::uint64_t value = value_sampler.Sample(rng);
        ScopedLatency timer(latencies.ingest);
        service.RecordResponseCount(user, value);
        ++*ingests;
        continue;
      }
      ++*queries;
      const std::uint64_t kind = rng.UniformU64(100);
      if (kind < 80) {
        ScopedLatency timer(latencies.point);
        volatile double estimate = service.PointHIndex(user);
        (void)estimate;
      } else if (kind < 95) {
        ScopedLatency timer(latencies.point);
        UserSnapshot snapshot;
        (void)service.Lookup(user, &snapshot);
      } else {
        ScopedLatency timer(latencies.topk);
        volatile std::size_t n = service.TopK(10).size();
        (void)n;
      }
    }
  }
}

int Run(const HarnessOptions& options) {
  ServiceOptions service_options;
  service_options.num_stripes = static_cast<std::size_t>(options.stripes);
  service_options.promote_threshold = options.promote_threshold;
  service_options.memory_budget_bytes = options.budget_mb << 20;
  service_options.enable_heavy_hitters = options.heavy;
  service_options.seed = options.seed;
  auto service_or = HImpactService::Create(service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  HImpactService service = std::move(service_or).value();

  std::atomic<std::uint64_t> budget{options.ops};
  Latencies latencies;
  std::vector<std::uint64_t> ingests(options.threads, 0);
  std::vector<std::uint64_t> queries(options.threads, 0);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      Worker(service, options, t, budget, latencies, &ingests[t],
             &queries[t]);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::uint64_t total_ingests = 0;
  std::uint64_t total_queries = 0;
  for (std::uint64_t t = 0; t < options.threads; ++t) {
    total_ingests += ingests[t];
    total_queries += queries[t];
  }
  const ServiceStats stats = service.Stats();
  const RegistryStats& r = stats.registry;
  std::printf(
      "BENCH{\"bench\":\"f4_service_qps\",\"users\":%llu,\"ops\":%llu,"
      "\"threads\":%llu,\"stripes\":%llu,\"query_permille\":%llu,"
      "\"zipf_s\":%.2f,\"seconds\":%.3f,\"qps\":%.0f,"
      "\"ingest_ops\":%llu,\"query_ops\":%llu,"
      "\"ingest_p50_us\":%.2f,\"ingest_p99_us\":%.2f,"
      "\"point_p50_us\":%.2f,\"point_p99_us\":%.2f,"
      "\"topk_p50_us\":%.2f,\"topk_p99_us\":%.2f,"
      "\"tracked_users\":%llu,\"cold_users\":%llu,\"hot_users\":%llu,"
      "\"frozen_users\":%llu,\"promotions\":%llu,\"demotions\":%llu,"
      "\"resident_bytes\":%llu,\"budget_bytes\":%llu,\"within_budget\":%s,"
      "\"hardware_concurrency\":%u}\n",
      static_cast<unsigned long long>(options.users),
      static_cast<unsigned long long>(total_ingests + total_queries),
      static_cast<unsigned long long>(options.threads),
      static_cast<unsigned long long>(options.stripes),
      static_cast<unsigned long long>(options.query_permille),
      options.zipf_s, seconds,
      static_cast<double>(total_ingests + total_queries) / seconds,
      static_cast<unsigned long long>(total_ingests),
      static_cast<unsigned long long>(total_queries),
      latencies.ingest.QuantileMicros(0.5),
      latencies.ingest.QuantileMicros(0.99),
      latencies.point.QuantileMicros(0.5),
      latencies.point.QuantileMicros(0.99),
      latencies.topk.QuantileMicros(0.5),
      latencies.topk.QuantileMicros(0.99),
      static_cast<unsigned long long>(r.num_users),
      static_cast<unsigned long long>(r.cold_users),
      static_cast<unsigned long long>(r.hot_users),
      static_cast<unsigned long long>(r.frozen_users),
      static_cast<unsigned long long>(r.promotions),
      static_cast<unsigned long long>(r.demotions),
      static_cast<unsigned long long>(r.resident_bytes),
      static_cast<unsigned long long>(r.budget_bytes),
      r.resident_bytes <= r.budget_bytes ? "true" : "false",
      std::thread::hardware_concurrency());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_f4_service_qps [--users N] [--ops N] "
                 "[--threads T] [--query-permille Q]\n"
                 "                            [--zipf-s S] [--budget-mb MB] "
                 "[--stripes P] [--promote-threshold K]\n"
                 "                            [--seed S] [--heavy]\n");
    return 2;
  }
  return Run(options);
}
