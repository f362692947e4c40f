// A5 — Checkpoint sizes: the serialized footprint of each aggregate
// estimator across eps, next to its live word count, plus — for every
// serializable type — the sealed (envelope-framed) size and the write /
// restore latency. Deployments that checkpoint sketches across restarts
// (or ship shard state to a merger) pay exactly these bytes; they track
// the theorems' space bounds. Each per-type row is also emitted as a
// BENCH{...} json line for machine consumption.
//
//   ./bench_a5_checkpoint_sizes [--quick]
//
// `--quick` stocks the eps table with a tenth of the Zipf elements (that
// table is nearly all of the run time) and times fewer repetitions per
// type. It prints the same rows.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/envelope.h"
#include "core/cash_register.h"
#include "core/exact.h"
#include "core/exponential_histogram.h"
#include "core/generalized.h"
#include "core/random_order.h"
#include "core/shifting_window.h"
#include "core/sliding_window_hindex.h"
#include "eval/table.h"
#include "hash/tabulation.h"
#include "heavy/heavy_hitters.h"
#include "heavy/one_heavy_hitter.h"
#include "random/rng.h"
#include "sketch/bjkst.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/distinct.h"
#include "sketch/hyperloglog.h"
#include "sketch/kll.h"
#include "sketch/l0_sampler.h"
#include "sketch/space_saving.h"
#include "workload/citation_vectors.h"

namespace {

using namespace himpact;

template <typename Estimator>
std::size_t CheckpointBytes(const Estimator& estimator) {
  ByteWriter writer;
  estimator.SerializeTo(writer);
  return writer.buffer().size();
}

// Measures sealed size plus write (serialize + seal) and restore (open +
// `decode`) latency for one stocked sketch, averaged over `reps`.
template <typename Sketch, typename Decode>
void ReportCheckpointLatency(Table& table, const char* name,
                             CheckpointTag tag, const Sketch& sketch,
                             Decode decode, int reps) {
  using Clock = std::chrono::steady_clock;

  std::vector<std::uint8_t> sealed;
  const auto write_start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    ByteWriter writer;
    sketch.SerializeTo(writer);
    sealed = SealEnvelope(tag, writer.Take());
  }
  const auto write_end = Clock::now();

  const auto restore_start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    auto payload = OpenEnvelope(sealed, tag);
    if (!payload.ok()) {
      std::fprintf(stderr, "%s: open failed: %s\n", name,
                   payload.status().ToString().c_str());
      return;
    }
    ByteReader reader(payload.value());
    auto restored = decode(reader);
    if (!restored.ok()) {
      std::fprintf(stderr, "%s: restore failed: %s\n", name,
                   restored.status().ToString().c_str());
      return;
    }
  }
  const auto restore_end = Clock::now();

  const auto micros = [&](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count() / reps;
  };
  const double write_us = micros(write_start, write_end);
  const double restore_us = micros(restore_start, restore_end);
  table.NewRow()
      .Cell(name)
      .Cell(static_cast<std::uint64_t>(sealed.size()))
      .Cell(write_us, 1)
      .Cell(restore_us, 1);
  std::printf(
      "BENCH{\"bench\":\"a5_checkpoint\",\"type\":\"%s\",\"sealed_bytes\":%zu,"
      "\"write_us\":%.2f,\"restore_us\":%.2f}\n",
      name, sealed.size(), write_us, restore_us);
}

template <typename Sketch>
void ReportCheckpointLatency(Table& table, const char* name,
                             CheckpointTag tag, const Sketch& sketch,
                             int reps) {
  ReportCheckpointLatency(
      table, name, tag, sketch,
      [](ByteReader& reader) { return Sketch::DeserializeFrom(reader); },
      reps);
}

void RunLatencySection(int reps) {
  std::printf("\nA5b: sealed checkpoint size and write/restore latency per "
              "type (avg of %d reps)\n\n",
              reps);
  Table table({"type", "sealed bytes", "write us", "restore us"});

  {
    DistinctCounter sketch(0.1, 0.05, 1);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Add(i % 40000);
    ReportCheckpointLatency(table, "distinct_kmv", CheckpointTag::kDistinct,
                            sketch, reps);
  }
  {
    BjkstDistinct sketch(0.1, 2);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Add(i % 40000);
    ReportCheckpointLatency(table, "bjkst", CheckpointTag::kBjkst, sketch,
                            reps);
  }
  {
    HyperLogLog sketch(12, 3);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Add(i % 40000);
    ReportCheckpointLatency(table, "hyperloglog", CheckpointTag::kHyperLogLog,
                            sketch, reps);
  }
  {
    KllSketch sketch(200, 4);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Add(i * 2654435761u);
    ReportCheckpointLatency(table, "kll", CheckpointTag::kKll, sketch, reps);
  }
  {
    CountMinSketch sketch(0.01, 0.01, 5);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Update(i % 5000);
    ReportCheckpointLatency(table, "count_min", CheckpointTag::kCountMin,
                            sketch, reps);
  }
  {
    CountSketch sketch(512, 5, 6);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Update(i % 5000);
    ReportCheckpointLatency(table, "count_sketch", CheckpointTag::kCountSketch,
                            sketch, reps);
  }
  {
    SpaceSaving sketch(256);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Update(i % 1000);
    ReportCheckpointLatency(table, "space_saving", CheckpointTag::kSpaceSaving,
                            sketch, reps);
  }
  {
    MisraGries sketch(256);
    for (std::uint64_t i = 0; i < 100000; ++i) sketch.Update(i % 1000);
    ReportCheckpointLatency(table, "misra_gries", CheckpointTag::kMisraGries,
                            sketch, reps);
  }
  {
    L0Sampler sketch(1 << 16, 0.05, 7);
    for (std::uint64_t i = 0; i < 20000; ++i) sketch.Update(i % (1 << 16), 1);
    ReportCheckpointLatency(table, "l0_sampler", CheckpointTag::kL0Sampler,
                            sketch, reps);
  }
  {
    CashRegisterOptions options;
    options.num_samplers_override = 16;
    auto sketch =
        CashRegisterEstimator::Create(0.2, 0.1, 1 << 16, 8, options).value();
    for (std::uint64_t i = 0; i < 20000; ++i) sketch.Update(i % (1 << 16), 1);
    ReportCheckpointLatency(table, "cash_register",
                            CheckpointTag::kCashRegister, sketch, reps);
  }
  {
    auto sketch = RandomOrderEstimator::Create(0.2, 100000).value();
    for (std::uint64_t i = 0; i < 50000; ++i) sketch.Add(i % 3000);
    ReportCheckpointLatency(table, "random_order", CheckpointTag::kRandomOrder,
                            sketch, reps);
  }
  {
    OneHeavyHitter::Options options;
    options.eps = 0.2;
    options.delta = 0.1;
    options.max_papers = 1 << 16;
    auto sketch = OneHeavyHitter::Create(options).value();
    const TabulationHash priority(9);
    for (std::uint64_t p = 0; p < 5000; ++p) {
      PaperTuple paper;
      paper.paper = p;
      paper.citations = 1 + p % 100;
      paper.authors.PushBack(p % 50);
      sketch.AddPaper(paper, priority(p));
    }
    ReportCheckpointLatency(
        table, "one_heavy_hitter", CheckpointTag::kOneHeavyHitter, sketch,
        [&priority](ByteReader& reader) {
          return OneHeavyHitter::DeserializeFrom(reader, priority);
        },
        reps);
  }
  {
    HeavyHitters::Options options;
    options.eps = 0.25;
    options.delta = 0.1;
    options.max_papers = 1 << 16;
    auto sketch = HeavyHitters::Create(options, 10).value();
    for (std::uint64_t p = 0; p < 5000; ++p) {
      PaperTuple paper;
      paper.paper = p;
      paper.citations = 1 + p % 100;
      paper.authors.PushBack(p % 50);
      sketch.AddPaper(paper);
    }
    ReportCheckpointLatency(table, "heavy_hitters",
                            CheckpointTag::kHeavyHitters, sketch,
                            std::max(1, reps / 4));
  }
  {
    IncrementalExactHIndex exact;
    for (std::uint64_t i = 0; i < 100000; ++i) exact.Add(i % 700);
    ReportCheckpointLatency(table, "incremental_exact",
                            CheckpointTag::kIncrementalExact, exact, reps);
  }
  {
    ExactCashRegisterHIndex exact;
    for (std::uint64_t i = 0; i < 100000; ++i) exact.Update(i % 20000, 1);
    ReportCheckpointLatency(table, "exact_cash_register",
                            CheckpointTag::kExactCashRegister, exact, reps);
  }

  table.Print();
  std::printf(
      "\nexpected shape: write latency is linear in the sealed size (one\n"
      "serialize + one CRC pass); restores of seed-reconstructed sketches\n"
      "(l0_sampler, cash_register, heavy_hitters) cost extra because the\n"
      "hash structures are re-derived before the state is overlaid.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t elements = 100000;
  int reps = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      elements = 10000;
      reps = 5;
    } else {
      std::fprintf(stderr, "usage: bench_a5_checkpoint_sizes [--quick]\n");
      return 2;
    }
  }
  const std::uint64_t n = 1 << 20;
  std::printf("A5: checkpoint sizes (bytes) after %lluk Zipf elements, "
              "n-bound = %llu\n\n",
              static_cast<unsigned long long>(elements / 1000),
              static_cast<unsigned long long>(n));

  Table table({"eps", "alg1 bytes", "alg1 words", "alg2 bytes", "alg2 words",
               "phi(k^2) bytes", "window-h bytes"});
  for (const double eps : {0.3, 0.1, 0.05}) {
    Rng rng(static_cast<std::uint64_t>(eps * 1000));
    VectorSpec spec;
    spec.kind = VectorKind::kZipf;
    spec.n = elements;
    spec.max_value = n;
    const AggregateStream values = MakeVector(spec, rng);

    auto histogram = ExponentialHistogramEstimator::Create(eps, n).value();
    auto window = ShiftingWindowEstimator::Create(eps).value();
    auto phi = PhiIndexEstimator::Create(eps, n, PhiSpec::Squared()).value();
    auto sliding = SlidingWindowHIndex::Create(eps, 4096).value();
    for (const std::uint64_t v : values) {
      histogram.Add(v);
      window.Add(v);
      phi.Add(v);
      sliding.Add(v);
    }
    table.NewRow()
        .Cell(eps, 2)
        .Cell(static_cast<std::uint64_t>(CheckpointBytes(histogram)))
        .Cell(histogram.EstimateSpace().words)
        .Cell(static_cast<std::uint64_t>(CheckpointBytes(window)))
        .Cell(window.EstimateSpace().words)
        .Cell(static_cast<std::uint64_t>(CheckpointBytes(phi)))
        .Cell(static_cast<std::uint64_t>(CheckpointBytes(sliding)));
  }
  table.Print();
  std::printf(
      "\nexpected shape: checkpoint bytes ~ 8 bytes x live words (plus a\n"
      "small header) for the counter-based estimators; the sliding-window\n"
      "checkpoint carries every DGIM bucket and is the largest; all grow\n"
      "as eps shrinks, mirroring the space theorems.\n");
  RunLatencySection(reps);
  return 0;
}
