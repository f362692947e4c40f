// F5 — Stall recovery harness for the fault-tolerance layer
// (src/fault/, docs/ROBUSTNESS.md), emitting one BENCH json line: a
// fresh single-stripe service takes a 500ms injected worker stall
// (FaultPoint::kWorkerStall wedges the stripe mutex) under steady load;
// completions are bucketed to measure how long throughput takes to
// return to steady state after the stall clears.
//
//   ./bench_f5_overload                                # full sizing
//   ./bench_f5_overload --stall-ms 100 --recovery-ms 500  # quick/CI sizing
//
// The recovery numbers are meaningful in any build.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "fault/fault.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/service.h"

namespace {

using namespace himpact;
using Clock = std::chrono::steady_clock;

struct HarnessOptions {
  std::uint64_t users = 1u << 16;
  std::uint64_t stall_ms = 500;      // injected stall
  std::uint64_t recovery_ms = 2000;  // wall time of the load window
  std::uint64_t seed = 2017;
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
    } else if (arg == "--stall-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--stall-ms", text, 10, 60000,
                                  &options->stall_ms))
        return false;
    } else if (arg == "--recovery-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--recovery-ms", text, 100, 600000,
                                  &options->recovery_ms))
        return false;
    } else if (arg == "--seed") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--seed", text, &options->seed))
        return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// A single-stripe service (so the stall blocks every
// writer, worst case) takes one kWorkerStall of --stall-ms at the start
// of the load window. Completion timestamps are bucketed; recovery time
// is the end of the last bucket whose throughput is under half the
// steady-state (second-half median) rate.
int RunRecovery(const HarnessOptions& options) {
  ServiceOptions service_options;
  service_options.num_stripes = 1;
  service_options.enable_heavy_hitters = false;
  service_options.seed = options.seed;
  auto service_or = HImpactService::Create(service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  HImpactService service = std::move(service_or).value();

  const std::string spec = std::string(FaultRegistry::Name(
                               FaultPoint::kWorkerStall)) +
                           ":0:1:" + std::to_string(options.stall_ms * 1000);
  const Status armed = FaultRegistry::Global().ArmFromText(spec);
  if (!armed.ok()) {
    std::fprintf(stderr, "%s\n", armed.ToString().c_str());
    return 1;
  }

  constexpr std::uint64_t kBinMs = 20;
  constexpr std::uint64_t kThreads = 2;
  std::vector<std::vector<double>> offsets(kThreads);
  std::vector<double> max_latency(kThreads, 0.0);
  std::vector<std::thread> workers;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::milliseconds(options.recovery_ms);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(options.seed * 40503u + t);
      const ZipfSampler user_sampler(options.users, 1.1);
      while (Clock::now() < stop) {
        const Clock::time_point begin = Clock::now();
        service.RecordResponseCount(user_sampler.Sample(rng),
                                    1 + rng.UniformU64(50));
        const Clock::time_point end = Clock::now();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(end - begin).count();
        max_latency[t] = std::max(max_latency[t], latency_ms);
        offsets[t].push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  FaultRegistry::Global().Reset();

  const std::size_t num_bins =
      static_cast<std::size_t>(options.recovery_ms / kBinMs) + 1;
  std::vector<std::uint64_t> bins(num_bins, 0);
  std::uint64_t completions = 0;
  double worst_latency_ms = 0.0;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    worst_latency_ms = std::max(worst_latency_ms, max_latency[t]);
    for (const double offset_ms : offsets[t]) {
      const std::size_t bin = static_cast<std::size_t>(offset_ms / kBinMs);
      if (bin < num_bins) ++bins[bin];
      ++completions;
    }
  }

  // Steady rate: median bucket of the second half of the window, which
  // is past any plausible stall + catch-up.
  std::vector<std::uint64_t> tail(bins.begin() + num_bins / 2, bins.end());
  std::sort(tail.begin(), tail.end());
  const std::uint64_t steady = tail.empty() ? 0 : tail[tail.size() / 2];
  std::size_t last_depressed = 0;
  bool saw_dip = false;
  for (std::size_t bin = 0; bin < num_bins / 2; ++bin) {
    if (bins[bin] < steady / 2) {
      last_depressed = bin;
      saw_dip = true;
    }
  }
  const double recovery_time_ms =
      saw_dip ? static_cast<double>((last_depressed + 1) * kBinMs) : 0.0;

  std::printf(
      "BENCH{\"bench\":\"f5_overload_recovery\",\"stall_ms\":%llu,"
      "\"window_ms\":%llu,\"completions\":%llu,"
      "\"steady_per_bin\":%llu,\"bin_ms\":%llu,"
      "\"recovery_time_ms\":%.0f,\"worst_op_latency_ms\":%.1f,"
      "\"stall_fired\":%s}\n",
      static_cast<unsigned long long>(options.stall_ms),
      static_cast<unsigned long long>(options.recovery_ms),
      static_cast<unsigned long long>(completions),
      static_cast<unsigned long long>(steady),
      static_cast<unsigned long long>(kBinMs), recovery_time_ms,
      worst_latency_ms,
      FaultRegistry::Global().fires(FaultPoint::kWorkerStall) > 0 ||
              worst_latency_ms >= static_cast<double>(options.stall_ms)
          ? "true"
          : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_f5_overload [--users N] [--stall-ms MS] "
                 "[--recovery-ms MS] [--seed S]\n");
    return 2;
  }
  return RunRecovery(options);
}
