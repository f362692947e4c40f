// hstream_cli: compute streaming H-index estimates over data on stdin.
//
// Aggregate mode (default): one response count per line.
//   seq 1 100 | ./build/examples/hstream_cli --eps 0.1
//
// Cash-register mode: "<paper-id> <delta>" per line (ids in [0, universe)).
//   ./build/examples/hstream_cli --mode cash --universe 10000 < events.txt
//
// Papers mode: "<paper-id> <citations> <author>[,<author>...]" per line;
// prints the heavy-hitter leaderboard (Algorithm 8) plus exact per-author
// H-indices.
//   ./build/examples/make_dataset papers corpus.txt
//   ./build/examples/hstream_cli --mode papers < corpus.txt
//
// Crash-safe checkpointing: with `--checkpoint state.ckpt`, the session
// (parameters, event count, estimator and exact-reference state) is saved
// atomically every `--checkpoint-every N` events and at end of stream. A
// restarted run restores the checkpoint, skips the events it already
// consumed, and converges to the same output as an uninterrupted run.
// `--stop-after K` exits after K total events (simulating a crash with a
// clean cut, for tests). A missing or damaged checkpoint degrades to a
// fresh run with a note on stderr. See docs/CHECKPOINTS.md.
//
// Prints the streaming estimates, the exact reference, and the space
// used by each method.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/envelope.h"
#include "common/flags.h"
#include "core/cash_register.h"
#include "core/exact.h"
#include "core/exponential_histogram.h"
#include "core/shifting_window.h"
#include "engine/shard_set.h"
#include "engine/traits.h"
#include "eval/table.h"
#include "heavy/baseline.h"
#include "heavy/heavy_hitters.h"
#include "io/checkpoint.h"
#include "io/stream_io.h"

namespace {

// Values are written into session checkpoints: never renumber.
enum class CliMode : std::uint8_t {
  kAggregate = 0,
  kCashRegister = 1,
  kPapers = 2,
};

struct CliOptions {
  double eps = 0.1;
  double delta = 0.05;
  CliMode mode = CliMode::kAggregate;
  std::uint64_t universe = 1u << 20;
  std::uint64_t seed = 2017;
  std::string checkpoint;             // empty -> checkpointing disabled
  std::uint64_t checkpoint_every = 0;  // 0 -> only at end of stream
  std::uint64_t stop_after = 0;        // 0 -> run to end of stream
  std::uint64_t shards = 1;            // >= 2 -> parallel shard set
  std::uint64_t batch = 256;           // per-shard events per job
};

// --- flag parsing -----------------------------------------------------------
//
// Numeric parsing and the "bad value for --flag" diagnostics live in
// common/flags.h, shared with hstream_serve and the bench drivers.

using himpact::ParseDoubleFlag;
using himpact::ParseUint64Flag;
using himpact::ParseUint64FlagInRange;

bool ParseArgs(int argc, char** argv, CliOptions* options) {
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
    if (arg == "--eps") {
      if (!next_text(&text) || !ParseDoubleFlag("--eps", text, &options->eps))
        return false;
    } else if (arg == "--delta") {
      if (!next_text(&text) ||
          !ParseDoubleFlag("--delta", text, &options->delta))
        return false;
    } else if (arg == "--universe") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--universe", text, &options->universe))
        return false;
    } else if (arg == "--seed") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--seed", text, &options->seed))
        return false;
    } else if (arg == "--checkpoint") {
      if (!next_text(&text)) return false;
      options->checkpoint = text;
    } else if (arg == "--checkpoint-every") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--checkpoint-every", text,
                           &options->checkpoint_every))
        return false;
    } else if (arg == "--stop-after") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--stop-after", text, &options->stop_after))
        return false;
    } else if (arg == "--shards") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--shards", text, 1, 256, &options->shards))
        return false;
    } else if (arg == "--batch") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--batch", text, 1, 1u << 20,
                                  &options->batch))
        return false;
    } else if (arg == "--mode") {
      if (!next_text(&text)) return false;
      const std::string mode = text;
      if (mode == "cash" || mode == "cashregister") {
        options->mode = CliMode::kCashRegister;
      } else if (mode == "aggregate") {
        options->mode = CliMode::kAggregate;
      } else if (mode == "papers") {
        options->mode = CliMode::kPapers;
      } else {
        std::fprintf(stderr, "bad value for --mode: '%s'\n", text);
        return false;
      }
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// --- session checkpoints ----------------------------------------------------

// "HIMPCLI1": distinguishes the CLI session payload inside its envelope.
constexpr std::uint64_t kCliSessionMagic = 0x48494d50434c4931ULL;

// Parameters + progress, written ahead of the mode-specific state so a
// resumed run can verify it is continuing the *same* session.
void WriteSessionHeader(himpact::ByteWriter& writer, const CliOptions& options,
                        std::uint64_t consumed) {
  writer.U64(kCliSessionMagic);
  writer.U8(static_cast<std::uint8_t>(options.mode));
  writer.F64(options.eps);
  writer.F64(options.delta);
  writer.U64(options.universe);
  writer.U64(options.seed);
  writer.U64(consumed);
}

himpact::Status ReadSessionHeader(himpact::ByteReader& reader,
                                  const CliOptions& options,
                                  std::uint64_t* consumed) {
  using himpact::Status;
  std::uint64_t magic = 0;
  std::uint8_t mode = 0;
  double eps = 0.0;
  double delta = 0.0;
  std::uint64_t universe = 0;
  std::uint64_t seed = 0;
  if (!reader.U64(&magic) || magic != kCliSessionMagic ||
      !reader.U8(&mode) || !reader.F64(&eps) || !reader.F64(&delta) ||
      !reader.U64(&universe) || !reader.U64(&seed) || !reader.U64(consumed)) {
    return Status::InvalidArgument("not an hstream_cli session checkpoint");
  }
  if (mode != static_cast<std::uint8_t>(options.mode)) {
    return Status::FailedPrecondition(
        "checkpoint was taken in a different --mode");
  }
  if (eps != options.eps || delta != options.delta ||
      universe != options.universe || seed != options.seed) {
    return Status::FailedPrecondition(
        "checkpoint parameters (eps/delta/universe/seed) do not match the "
        "flags of this run");
  }
  return Status::OK();
}

void LogFallback(const CliOptions& options, const himpact::Status& status) {
  std::fprintf(stderr, "checkpoint unavailable (%s): %s; starting fresh\n",
               options.checkpoint.c_str(), status.message().c_str());
}

himpact::Status SaveSession(const CliOptions& options,
                            himpact::ByteWriter&& writer) {
  return himpact::WriteCheckpointFile(options.checkpoint,
                                      himpact::CheckpointTag::kCliSession,
                                      writer.Take());
}

// Shared per-event bookkeeping: periodic checkpoint plus the --stop-after
// simulated crash. `save` snapshots the current session to `writer` form.
// Returns false when the run should stop (crash simulated or I/O failure).
template <typename SaveFn>
bool AfterEvent(const CliOptions& options, std::uint64_t consumed,
                SaveFn&& save, int* exit_code) {
  if (!options.checkpoint.empty() && options.checkpoint_every > 0 &&
      consumed % options.checkpoint_every == 0) {
    const himpact::Status status = save();
    if (!status.ok()) {
      std::fprintf(stderr, "checkpoint write failed: %s\n",
                   status.message().c_str());
      *exit_code = 1;
      return false;
    }
  }
  if (options.stop_after > 0 && consumed >= options.stop_after) {
    if (!options.checkpoint.empty()) {
      const himpact::Status status = save();
      if (!status.ok()) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     status.message().c_str());
        *exit_code = 1;
        return false;
      }
    }
    std::fprintf(stderr, "stopped after %llu events%s\n",
                 static_cast<unsigned long long>(consumed),
                 options.checkpoint.empty() ? "" : " (checkpoint written)");
    *exit_code = 0;
    return false;
  }
  return true;
}

// Final checkpoint at end of stream, so the next run resumes complete.
bool SaveFinal(const himpact::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 status.message().c_str());
    return false;
  }
  return true;
}

// --- aggregate mode ---------------------------------------------------------

int RunAggregate(const CliOptions& options) {
  using namespace himpact;
  auto histogram_or =
      ExponentialHistogramEstimator::Create(options.eps, options.universe);
  auto window_or = ShiftingWindowEstimator::Create(options.eps);
  if (!histogram_or.ok() || !window_or.ok()) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }
  auto histogram = std::move(histogram_or).value();
  auto window = std::move(window_or).value();
  IncrementalExactHIndex exact;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      auto restored_histogram =
          ExponentialHistogramEstimator::DeserializeFrom(reader);
      if (!restored_histogram.ok()) return restored_histogram.status();
      auto restored_window = ShiftingWindowEstimator::DeserializeFrom(reader);
      if (!restored_window.ok()) return restored_window.status();
      auto restored_exact = IncrementalExactHIndex::DeserializeFrom(reader);
      if (!restored_exact.ok()) return restored_exact.status();
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      histogram = std::move(restored_histogram).value();
      window = std::move(restored_window).value();
      exact = std::move(restored_exact).value();
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
    }
  }

  const auto save = [&]() {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    histogram.SerializeTo(writer);
    window.SerializeTo(writer);
    exact.SerializeTo(writer);
    return SaveSession(options, std::move(writer));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  unsigned long long value = 0;
  while (std::scanf("%llu", &value) == 1) {
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    histogram.Add(value);
    window.Add(value);
    exact.Add(value);
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  std::printf("elements            : %llu\n",
              static_cast<unsigned long long>(consumed));
  std::printf("exact H-index       : %llu\n",
              static_cast<unsigned long long>(exact.HIndex()));
  std::printf("Alg 1 estimate      : %.1f  (%llu words)\n",
              histogram.Estimate(),
              static_cast<unsigned long long>(
                  histogram.EstimateSpace().words));
  std::printf("Alg 2 estimate      : %.1f  (%llu words)\n", window.Estimate(),
              static_cast<unsigned long long>(window.EstimateSpace().words));
  return 0;
}

// --- cash-register mode -----------------------------------------------------

int RunCashRegister(const CliOptions& options) {
  using namespace himpact;
  auto estimator_or = CashRegisterEstimator::Create(
      options.eps, options.delta, options.universe, options.seed);
  if (!estimator_or.ok()) {
    std::fprintf(stderr, "%s\n", estimator_or.status().ToString().c_str());
    return 1;
  }
  auto estimator = std::move(estimator_or).value();
  ExactCashRegisterHIndex exact;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      auto restored_estimator = CashRegisterEstimator::DeserializeFrom(reader);
      if (!restored_estimator.ok()) return restored_estimator.status();
      auto restored_exact = ExactCashRegisterHIndex::DeserializeFrom(reader);
      if (!restored_exact.ok()) return restored_exact.status();
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      estimator = std::move(restored_estimator).value();
      exact = std::move(restored_exact).value();
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
    }
  }

  const auto save = [&]() {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    estimator.SerializeTo(writer);
    exact.SerializeTo(writer);
    return SaveSession(options, std::move(writer));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  unsigned long long paper = 0;
  long long delta = 0;
  while (std::scanf("%llu %lld", &paper, &delta) == 2) {
    if (paper >= options.universe || delta < 0) {
      std::fprintf(stderr, "bad event: %llu %lld\n", paper, delta);
      return 1;
    }
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    estimator.Update(paper, delta);
    exact.Update(paper, delta);
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  std::printf("events              : %llu\n",
              static_cast<unsigned long long>(consumed));
  std::printf("exact H-index       : %llu  (%llu words)\n",
              static_cast<unsigned long long>(exact.HIndex()),
              static_cast<unsigned long long>(exact.EstimateSpace().words));
  std::printf("Alg 5/6 estimate    : %.1f  (%llu words, %zu samplers)\n",
              estimator.Estimate(),
              static_cast<unsigned long long>(
                  estimator.EstimateSpace().words),
              estimator.num_samplers());
  return 0;
}

// --- papers mode ------------------------------------------------------------

void WritePaperTupleRecord(himpact::ByteWriter& writer,
                           const himpact::PaperTuple& paper) {
  writer.U64(paper.paper);
  writer.U64(paper.citations);
  writer.U8(static_cast<std::uint8_t>(paper.authors.size()));
  for (const himpact::AuthorId author : paper.authors) writer.U64(author);
}

bool ReadPaperTupleRecord(himpact::ByteReader& reader,
                          himpact::PaperTuple* out) {
  himpact::PaperTuple paper;
  std::uint8_t num_authors = 0;
  if (!reader.U64(&paper.paper) || !reader.U64(&paper.citations) ||
      !reader.U8(&num_authors) ||
      num_authors > himpact::kMaxAuthorsPerPaper) {
    return false;
  }
  for (std::uint8_t i = 0; i < num_authors; ++i) {
    himpact::AuthorId author = 0;
    if (!reader.U64(&author)) return false;
    paper.authors.PushBack(author);
  }
  *out = paper;
  return true;
}

int RunPapers(const CliOptions& options) {
  using namespace himpact;
  HeavyHitters::Options hh_options;
  hh_options.eps = options.eps < 0.15 ? 0.25 : options.eps;
  hh_options.delta = options.delta;
  hh_options.max_papers = options.universe;
  auto sketch_or = HeavyHitters::Create(hh_options, options.seed);
  if (!sketch_or.ok()) {
    std::fprintf(stderr, "%s\n", sketch_or.status().ToString().c_str());
    return 1;
  }
  auto sketch = std::move(sketch_or).value();
  PaperStream papers;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      auto restored_sketch = HeavyHitters::DeserializeFrom(reader);
      if (!restored_sketch.ok()) return restored_sketch.status();
      std::uint64_t num_papers = 0;
      if (!reader.U64(&num_papers) ||
          num_papers > reader.remaining() / 17) {  // 17 = minimal record size
        return Status::InvalidArgument("corrupt paper list in checkpoint");
      }
      PaperStream restored_papers;
      restored_papers.reserve(static_cast<std::size_t>(num_papers));
      for (std::uint64_t i = 0; i < num_papers; ++i) {
        PaperTuple paper;
        if (!ReadPaperTupleRecord(reader, &paper)) {
          return Status::InvalidArgument("corrupt paper record in checkpoint");
        }
        restored_papers.push_back(paper);
      }
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      sketch = std::move(restored_sketch).value();
      papers = std::move(restored_papers);
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
      papers.clear();
    }
  }

  const auto save = [&]() {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    sketch.SerializeTo(writer);
    writer.U64(papers.size());
    for (const PaperTuple& paper : papers) WritePaperTupleRecord(writer, paper);
    return SaveSession(options, std::move(writer));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (IsSkippableLine(line)) continue;
    StatusOr<PaperTuple> paper = ParsePaperLine(line);
    if (!paper.ok()) {
      std::fprintf(stderr, "stdin:%zu: %s\n", line_number,
                   paper.status().ToString().c_str());
      return 1;
    }
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    sketch.AddPaper(paper.value());
    papers.push_back(std::move(paper).value());
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  std::printf("papers              : %zu\n\n", papers.size());
  Table hh_table({"heavy hitters (Alg 8)", "h estimate", "detections"});
  for (const HeavyHitterReport& report : sketch.Report()) {
    hh_table.NewRow()
        .Cell(report.author)
        .Cell(report.h_estimate, 1)
        .Cell(report.detections);
  }
  hh_table.Print();

  std::printf("\n");
  Table exact_table({"exact top authors", "h-index"});
  const auto exact = ExactAuthorHIndices(papers);
  for (std::size_t i = 0; i < exact.size() && i < 5; ++i) {
    exact_table.NewRow().Cell(exact[i].author).Cell(exact[i].h_index);
  }
  exact_table.Print();
  return 0;
}

// --- sharded mode -----------------------------------------------------------
//
// With `--shards N` (N >= 2) ingestion runs on a fork-join shard set:
// events are hash-partitioned across N private estimator instances, each
// shard's batches of `--batch` events are applied by jobs running in
// parallel, and the final answer is the merge of the shard states. Only
// mergeable estimators can be sharded (docs/ALGORITHMS.md,
// "Mergeability"): Algorithm 1 / Algorithm 5-6 / Algorithm 8 shard
// cleanly; the exact references and Algorithm 2 are kept on the main
// thread (exact) or skipped with a note (Alg 2, not mergeable).
//
// Sharded checkpoints keep the docs/CHECKPOINTS.md envelope conventions but
// split the state: `FILE` holds the session header (+ main-thread exact
// state) in a kCliSession envelope, `FILE.engine` the shard-set manifest,
// and `FILE.engine.shard-<i>` one framed envelope per shard.

std::string EnginePath(const CliOptions& options) {
  return options.checkpoint + ".engine";
}

template <typename Shards>
void PrintShardReport(const Shards& shard_set) {
  std::printf("\nshard  pushed\n");
  for (std::size_t s = 0; s < shard_set.num_shards(); ++s) {
    std::printf("%-6zu %llu\n", s,
                static_cast<unsigned long long>(shard_set.pushed(s)));
  }
}

int RunAggregateSharded(const CliOptions& options) {
  using namespace himpact;
  using Shards = ShardSet<AggregateEngineTraits<ExponentialHistogramEstimator>>;
  if (!ExponentialHistogramEstimator::Create(options.eps, options.universe)
           .ok()) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }
  auto shards_or =
      Shards::Create(options.shards, options.batch, [&](std::size_t) {
        return ExponentialHistogramEstimator::Create(options.eps,
                                                     options.universe)
            .value();
      });
  if (!shards_or.ok()) {
    std::fprintf(stderr, "%s\n", shards_or.status().ToString().c_str());
    return 1;
  }
  Shards shard_set = std::move(shards_or).value();
  IncrementalExactHIndex exact;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      auto restored_exact = IncrementalExactHIndex::DeserializeFrom(reader);
      if (!restored_exact.ok()) return restored_exact.status();
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      Status shard_status = shard_set.RestoreFrom(EnginePath(options));
      if (!shard_status.ok()) return shard_status;
      exact = std::move(restored_exact).value();
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
    }
  }

  const auto save = [&]() -> Status {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    exact.SerializeTo(writer);
    const Status session = SaveSession(options, std::move(writer));
    if (!session.ok()) return session;
    return shard_set.CheckpointTo(EnginePath(options));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  unsigned long long value = 0;
  while (std::scanf("%llu", &value) == 1) {
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    shard_set.Add(value);
    exact.Add(value);
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  const ExponentialHistogramEstimator merged = shard_set.Merged();
  std::printf("elements            : %llu  (%llu shards)\n",
              static_cast<unsigned long long>(consumed),
              static_cast<unsigned long long>(options.shards));
  std::printf("exact H-index       : %llu\n",
              static_cast<unsigned long long>(exact.HIndex()));
  std::printf("Alg 1 estimate      : %.1f  (%llu words/shard)\n",
              merged.Estimate(),
              static_cast<unsigned long long>(merged.EstimateSpace().words));
  std::printf("Alg 2 estimate      : skipped (shifting window is not "
              "mergeable; rerun with --shards 1)\n");
  PrintShardReport(shard_set);
  return 0;
}

int RunCashRegisterSharded(const CliOptions& options) {
  using namespace himpact;
  using Shards = ShardSet<CashRegisterEngineTraits<CashRegisterEstimator>>;
  auto probe = CashRegisterEstimator::Create(options.eps, options.delta,
                                             options.universe, options.seed);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 1;
  }
  auto shards_or =
      Shards::Create(options.shards, options.batch, [&](std::size_t) {
        return CashRegisterEstimator::Create(options.eps, options.delta,
                                             options.universe, options.seed)
            .value();
      });
  if (!shards_or.ok()) {
    std::fprintf(stderr, "%s\n", shards_or.status().ToString().c_str());
    return 1;
  }
  Shards shard_set = std::move(shards_or).value();
  ExactCashRegisterHIndex exact;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      auto restored_exact = ExactCashRegisterHIndex::DeserializeFrom(reader);
      if (!restored_exact.ok()) return restored_exact.status();
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      Status shard_status = shard_set.RestoreFrom(EnginePath(options));
      if (!shard_status.ok()) return shard_status;
      exact = std::move(restored_exact).value();
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
    }
  }

  const auto save = [&]() -> Status {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    exact.SerializeTo(writer);
    const Status session = SaveSession(options, std::move(writer));
    if (!session.ok()) return session;
    return shard_set.CheckpointTo(EnginePath(options));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  unsigned long long paper = 0;
  long long delta = 0;
  while (std::scanf("%llu %lld", &paper, &delta) == 2) {
    if (paper >= options.universe || delta < 0) {
      std::fprintf(stderr, "bad event: %llu %lld\n", paper, delta);
      return 1;
    }
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    shard_set.Add(CitationEvent{paper, delta});
    exact.Update(paper, delta);
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  const CashRegisterEstimator merged = shard_set.Merged();
  std::printf("events              : %llu  (%llu shards)\n",
              static_cast<unsigned long long>(consumed),
              static_cast<unsigned long long>(options.shards));
  std::printf("exact H-index       : %llu  (%llu words)\n",
              static_cast<unsigned long long>(exact.HIndex()),
              static_cast<unsigned long long>(exact.EstimateSpace().words));
  std::printf("Alg 5/6 estimate    : %.1f  (%llu words/shard, %zu samplers)\n",
              merged.Estimate(),
              static_cast<unsigned long long>(merged.EstimateSpace().words),
              merged.num_samplers());
  PrintShardReport(shard_set);
  return 0;
}

int RunPapersSharded(const CliOptions& options) {
  using namespace himpact;
  using Shards = ShardSet<PaperEngineTraits<HeavyHitters>>;
  HeavyHitters::Options hh_options;
  hh_options.eps = options.eps < 0.15 ? 0.25 : options.eps;
  hh_options.delta = options.delta;
  hh_options.max_papers = options.universe;
  if (!HeavyHitters::Create(hh_options, options.seed).ok()) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }
  auto shards_or =
      Shards::Create(options.shards, options.batch, [&](std::size_t) {
        return HeavyHitters::Create(hh_options, options.seed).value();
      });
  if (!shards_or.ok()) {
    std::fprintf(stderr, "%s\n", shards_or.status().ToString().c_str());
    return 1;
  }
  Shards shard_set = std::move(shards_or).value();
  PaperStream papers;
  std::uint64_t consumed = 0;

  if (!options.checkpoint.empty()) {
    const auto restore = [&]() -> Status {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(options.checkpoint, CheckpointTag::kCliSession);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      Status header = ReadSessionHeader(reader, options, &consumed);
      if (!header.ok()) return header;
      std::uint64_t num_papers = 0;
      if (!reader.U64(&num_papers) ||
          num_papers > reader.remaining() / 17) {  // 17 = minimal record size
        return Status::InvalidArgument("corrupt paper list in checkpoint");
      }
      PaperStream restored_papers;
      restored_papers.reserve(static_cast<std::size_t>(num_papers));
      for (std::uint64_t i = 0; i < num_papers; ++i) {
        PaperTuple paper;
        if (!ReadPaperTupleRecord(reader, &paper)) {
          return Status::InvalidArgument("corrupt paper record in checkpoint");
        }
        restored_papers.push_back(paper);
      }
      if (!reader.AtEnd()) {
        return Status::InvalidArgument("trailing bytes in session checkpoint");
      }
      Status shard_status = shard_set.RestoreFrom(EnginePath(options));
      if (!shard_status.ok()) return shard_status;
      papers = std::move(restored_papers);
      return Status::OK();
    };
    const Status status = restore();
    if (!status.ok()) {
      LogFallback(options, status);
      consumed = 0;
      papers.clear();
    }
  }

  const auto save = [&]() -> Status {
    ByteWriter writer;
    WriteSessionHeader(writer, options, consumed);
    writer.U64(papers.size());
    for (const PaperTuple& paper : papers) WritePaperTupleRecord(writer, paper);
    const Status session = SaveSession(options, std::move(writer));
    if (!session.ok()) return session;
    return shard_set.CheckpointTo(EnginePath(options));
  };

  const std::uint64_t already = consumed;
  std::uint64_t position = 0;
  int exit_code = 0;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (IsSkippableLine(line)) continue;
    StatusOr<PaperTuple> paper = ParsePaperLine(line);
    if (!paper.ok()) {
      std::fprintf(stderr, "stdin:%zu: %s\n", line_number,
                   paper.status().ToString().c_str());
      return 1;
    }
    ++position;
    if (position <= already) continue;  // replayed: already in the state
    shard_set.Add(paper.value());
    papers.push_back(std::move(paper).value());
    ++consumed;
    if (!AfterEvent(options, consumed, save, &exit_code)) return exit_code;
  }
  if (!options.checkpoint.empty() && !SaveFinal(save())) return 1;

  const HeavyHitters merged = shard_set.Merged();
  std::printf("papers              : %zu  (%llu shards)\n\n", papers.size(),
              static_cast<unsigned long long>(options.shards));
  Table hh_table({"heavy hitters (Alg 8)", "h estimate", "detections"});
  for (const HeavyHitterReport& report : merged.Report()) {
    hh_table.NewRow()
        .Cell(report.author)
        .Cell(report.h_estimate, 1)
        .Cell(report.detections);
  }
  hh_table.Print();

  std::printf("\n");
  Table exact_table({"exact top authors", "h-index"});
  const auto exact = ExactAuthorHIndices(papers);
  for (std::size_t i = 0; i < exact.size() && i < 5; ++i) {
    exact_table.NewRow().Cell(exact[i].author).Cell(exact[i].h_index);
  }
  exact_table.Print();
  PrintShardReport(shard_set);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: hstream_cli [--mode aggregate|cash|papers] "
                 "[--eps E] [--delta D] [--universe N] [--seed S]\n"
                 "                   [--checkpoint FILE] "
                 "[--checkpoint-every N] [--stop-after K]\n"
                 "                   [--shards N] [--batch B] < data\n");
    return 2;
  }
  const bool sharded = options.shards >= 2;
  switch (options.mode) {
    case CliMode::kCashRegister:
      return sharded ? RunCashRegisterSharded(options)
                     : RunCashRegister(options);
    case CliMode::kPapers:
      return sharded ? RunPapersSharded(options) : RunPapers(options);
    case CliMode::kAggregate:
      break;
  }
  return sharded ? RunAggregateSharded(options) : RunAggregate(options);
}
