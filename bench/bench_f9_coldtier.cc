// F9 — Out-of-core cold tier (src/storage/, docs/CHECKPOINTS.md). Two
// families of BENCH{...} json lines:
//
//  * `f9_coldtier` — per population size, the cost of answering a
//    paged-out user. A fixed RAM budget forces most of the population
//    into the mmap-backed segment tier; the measurement is the per-get
//    latency of `PointHIndex` on sampled segment-tier users (each get
//    answers the user's floor from RAM and reads no block, so
//    `page_ins` reads 0), reported as p50/p99 against the old
//    alternative: restoring the whole checkpoint before answering
//    (timed as one `RestoreFrom` into a fresh budget-matched service
//    with no segment store — demotions freeze, the way the repo worked
//    before the cold tier existed).
//  * `f9_incremental` — delta-checkpoint sizing. A 128-stripe service
//    saves in full, one stripe is dirtied (<1% of the population), and
//    the incremental save is compared byte-for-byte against the full
//    one. The interesting number is `incr_over_full` (target <= 0.10).
//
//   ./bench_f9_coldtier [--quick] [--users N[,N...]] [--budget-mb B]
//
// Timing is wall clock (steady_clock); per-get latencies are sorted
// for exact sample percentiles. Run in Release for meaningful numbers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "random/rng.h"
#include "service/registry.h"
#include "service/service.h"

namespace {

using namespace himpact;

struct F9Options {
  std::vector<std::uint64_t> populations = {1'000'000, 10'000'000};
  std::uint64_t budget_bytes = 64ull << 20;
  std::uint64_t incr_users = 100'000;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string TempDir(const char* name) {
  std::string path = "/tmp/himpact_f9_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(::getpid()));
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Percentile of an already-sorted sample (exact order statistic).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[index];
}

void RunColdTier(const F9Options& options, std::uint64_t users) {
  const std::string root = TempDir("cold");
  const std::string segment_dir = root + "/segments";
  std::filesystem::create_directories(segment_dir);

  ServiceOptions service_options;
  service_options.num_stripes = 8;
  service_options.promote_threshold = 8;
  service_options.memory_budget_bytes = options.budget_bytes;
  service_options.enable_heavy_hitters = false;
  service_options.segment_dir = segment_dir;
  auto service_or = HImpactService::Create(service_options);
  if (!service_or.ok()) std::exit(1);
  HImpactService& service = service_or.value();

  // Population: every user exists; most stay on the exact cold path (3
  // events), every 97th accumulates enough to promote to a hot sketch.
  // The sequential sweep makes early users LRU victims, so by the end
  // the bulk of the population lives in the segment tier.
  Rng rng(2024);
  std::uint64_t events = 0;
  const double ingest_start = NowSeconds();
  for (std::uint64_t user = 1; user <= users; ++user) {
    const int per_user = (user % 97 == 0) ? 10 : 3;
    for (int e = 0; e < per_user; ++e) {
      service.RecordResponseCount(user, 1 + rng.UniformU64(100));
      ++events;
    }
  }
  const double ingest_s = NowSeconds() - ingest_start;

  // One full checkpoint: the baseline artifact, and the flush that
  // seals every pending segment record.
  const std::string checkpoint = root + "/ckpt";
  if (!service.CheckpointTo(checkpoint).ok()) std::exit(1);

  // Sample segment-tier users from the older (LRU-evicted) half of the
  // population; measure one PointHIndex each. A get reads no record,
  // so the page-in counters of the measured section stay 0; a nonzero
  // count would mean gets reach the store again.
  constexpr std::size_t kSampleTarget = 512;
  std::vector<AuthorId> sample;
  sample.reserve(kSampleTarget);
  for (std::uint64_t probe = 0;
       probe < users * 4 && sample.size() < kSampleTarget; ++probe) {
    const AuthorId user = 1 + rng.UniformU64(std::max<std::uint64_t>(
                                  1, users / 2));
    UserSnapshot snapshot;
    if (service.Lookup(user, &snapshot) &&
        snapshot.tier == UserTier::kSegment) {
      sample.push_back(user);
    }
  }
  const std::uint64_t page_ins_before = service.Stats().registry.page_ins;
  const std::uint64_t cache_hits_before =
      service.Stats().registry.page_in_cache_hits;
  std::vector<double> get_us;
  get_us.reserve(sample.size());
  double checksum = 0.0;
  for (const AuthorId user : sample) {
    const double start = NowSeconds();
    checksum += service.PointHIndex(user);
    get_us.push_back((NowSeconds() - start) * 1e6);
  }
  if (checksum <= 0.0 && !sample.empty()) std::exit(1);
  std::sort(get_us.begin(), get_us.end());
  const ServiceStats stats = service.Stats();

  // Baseline: answering the same question the pre-cold-tier way means
  // restoring the entire checkpoint first. Budget-matched, no segment
  // store (demotion freezes), so the restore is as cheap as it gets.
  ServiceOptions baseline_options = service_options;
  baseline_options.segment_dir.clear();
  auto baseline_or = HImpactService::Create(baseline_options);
  if (!baseline_or.ok()) std::exit(1);
  const double restore_start = NowSeconds();
  if (!baseline_or.value().RestoreFrom(checkpoint).ok()) std::exit(1);
  const double restore_ms = (NowSeconds() - restore_start) * 1e3;

  const double p50 = Percentile(get_us, 0.50);
  const double p99 = Percentile(get_us, 0.99);
  std::printf(
      "BENCH{\"bench\":\"f9_coldtier\",\"users\":%llu,\"events\":%llu,"
      "\"budget_mb\":%llu,\"ingest_s\":%.2f,\"segment_users\":%llu,"
      "\"segment_files\":%llu,\"segment_mb\":%.1f,\"sampled_gets\":%zu,"
      "\"cold_get_p50_us\":%.1f,\"cold_get_p99_us\":%.1f,\"page_ins\":%llu,"
      "\"cache_hits\":%llu,\"restore_full_ms\":%.1f,"
      "\"p99_speedup_vs_restore\":%.1f}\n",
      static_cast<unsigned long long>(users),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(options.budget_bytes >> 20), ingest_s,
      static_cast<unsigned long long>(stats.registry.segment_users),
      static_cast<unsigned long long>(stats.registry.segment_files),
      static_cast<double>(stats.registry.segment_bytes) / (1 << 20),
      sample.size(), p50, p99,
      static_cast<unsigned long long>(stats.registry.page_ins -
                                      page_ins_before),
      static_cast<unsigned long long>(stats.registry.page_in_cache_hits -
                                      cache_hits_before),
      restore_ms, p99 > 0.0 ? restore_ms * 1e3 / p99 : 0.0);

  std::filesystem::remove_all(root);
}

void RunIncremental(const F9Options& options) {
  const std::string root = TempDir("incr");
  const std::string checkpoint = root + "/ckpt";

  ServiceOptions service_options;
  service_options.num_stripes = 128;
  service_options.enable_heavy_hitters = false;
  auto service_or = HImpactService::Create(service_options);
  if (!service_or.ok()) std::exit(1);
  HImpactService& service = service_or.value();

  Rng rng(7);
  for (std::uint64_t user = 1; user <= options.incr_users; ++user) {
    service.RecordResponseCount(user, 1 + rng.UniformU64(50));
    service.RecordResponseCount(user, 1 + rng.UniformU64(50));
  }

  const double full_start = NowSeconds();
  if (!service.CheckpointTo(checkpoint, SaveMode::kFull).ok()) std::exit(1);
  const double full_ms = (NowSeconds() - full_start) * 1e3;

  // Dirty exactly one stripe — one user's stream moves, 127 stripes
  // stay clean — then extend the chain with an incremental save.
  service.RecordResponseCount(1, 42);
  const double incr_start = NowSeconds();
  if (!service.CheckpointTo(checkpoint, SaveMode::kIncremental).ok()) {
    std::exit(1);
  }
  const double incr_ms = (NowSeconds() - incr_start) * 1e3;

  const CheckpointCounters counters = service.Stats().checkpoint;
  const double ratio =
      counters.bytes_full > 0
          ? static_cast<double>(counters.bytes_incremental) /
                static_cast<double>(counters.bytes_full)
          : 0.0;
  std::printf(
      "BENCH{\"bench\":\"f9_incremental\",\"stripes\":%zu,\"users\":%llu,"
      "\"dirty_stripes\":%llu,\"stripes_skipped_clean\":%llu,"
      "\"bytes_full\":%llu,\"bytes_incremental\":%llu,"
      "\"incr_over_full\":%.4f,\"full_save_ms\":%.1f,\"incr_save_ms\":%.1f}"
      "\n",
      service_options.num_stripes,
      static_cast<unsigned long long>(options.incr_users),
      static_cast<unsigned long long>(counters.stripes_written -
                                      service_options.num_stripes),
      static_cast<unsigned long long>(counters.stripes_skipped_clean),
      static_cast<unsigned long long>(counters.bytes_full),
      static_cast<unsigned long long>(counters.bytes_incremental), ratio,
      full_ms, incr_ms);

  std::filesystem::remove_all(root);
}

std::vector<std::uint64_t> ParsePopulations(const char* text) {
  std::vector<std::uint64_t> out;
  const char* cursor = text;
  while (*cursor != '\0') {
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(cursor, &end, 10);
    if (end == cursor || value == 0) return {};
    out.push_back(value);
    cursor = (*end == ',') ? end + 1 : end;
    if (*end != ',' && *end != '\0') return {};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  F9Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.populations = {20'000};
      options.budget_bytes = 1 << 20;
      options.incr_users = 10'000;
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      options.populations = ParsePopulations(argv[++i]);
      if (options.populations.empty()) {
        std::fprintf(stderr, "--users wants N[,N...]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      options.budget_bytes =
          std::strtoull(argv[++i], nullptr, 10) << 20;
    } else {
      std::fprintf(stderr,
                   "usage: bench_f9_coldtier [--quick] [--users N[,N...]] "
                   "[--budget-mb B]\n");
      return 2;
    }
  }
  for (const std::uint64_t users : options.populations) {
    RunColdTier(options, users);
  }
  RunIncremental(options);
  return 0;
}
