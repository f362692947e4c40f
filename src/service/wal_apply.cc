#include "service/wal_apply.h"

#include <array>
#include <utility>

#include "common/bytes.h"
#include "engine/task_runtime.h"

namespace himpact {
namespace {

/// Decoded form of one WAL payload. An add is the one-author tuple
/// `RecordResponseCount` fed the grid, so one gate and one apply step
/// cover both flavors.
struct WalEvent {
  std::uint8_t type = 0;
  PaperTuple paper;
  std::array<std::uint64_t, kMaxAuthorsPerPaper> stripe_seqs{};
};

bool DecodeWalEvent(WalPayload payload, const HImpactService& service,
                    WalEvent* event) {
  ByteReader reader(payload);
  if (!reader.U8(&event->type)) return false;
  if (event->type == kWalEventAdd) {
    AuthorId user = 0;
    std::uint64_t value = 0;
    if (!reader.U64(&user) || !reader.U64(&value) ||
        !reader.U64(&event->stripe_seqs[0]) || !reader.AtEnd()) {
      return false;
    }
    event->paper = service.ResponseCountPaper(user, value,
                                              event->stripe_seqs[0]);
    return true;
  }
  if (event->type == kWalEventPaper) {
    std::uint8_t nauthors = 0;
    if (!reader.U64(&event->paper.paper) ||
        !reader.U64(&event->paper.citations) || !reader.U8(&nauthors)) {
      return false;
    }
    if (nauthors == 0 || nauthors > kMaxAuthorsPerPaper) return false;
    for (std::uint8_t a = 0; a < nauthors; ++a) {
      AuthorId author = 0;
      if (!reader.U64(&author) || !reader.U64(&event->stripe_seqs[a])) {
        return false;
      }
      event->paper.authors.PushBack(author);
    }
    return reader.AtEnd();
  }
  return false;
}

/// One segment's gated work: one run per stripe, then the grid run. A
/// stripe's run is in log order; each op names a record and the bits
/// (author indices) of its authors on the stripe that the gate let
/// through. The grid run's ops name the records whose Alg. 8 tuple the
/// grid still misses, with no bits, in any order: the grid is a function
/// of the set of its tuples.
using Runs = std::vector<std::vector<std::pair<std::size_t, std::uint32_t>>>;

/// The serial phase: decodes every payload of a segment, gates each
/// author against its stripe's running count in `counts` (advancing it
/// per applied author, so same-stripe co-authors and later records gate
/// against the right value) and each tuple against `grid_coverage`,
/// counts the verdicts into `out`, and sorts the applies into runs.
Runs GateSegment(const std::vector<WalPayload>& payloads,
                 const HImpactService& service,
                 const std::vector<std::uint64_t>& grid_coverage,
                 std::vector<std::uint64_t>* counts, WalApplyStats* out) {
  const TieredUserRegistry& registry = service.registry();
  Runs runs(registry.num_stripes() + 1);
  for (std::size_t record = 0; record < payloads.size(); ++record) {
    WalEvent event;
    if (!DecodeWalEvent(payloads[record], service, &event)) {
      ++out->malformed_records;
      continue;
    }
    const PaperTuple& paper = event.paper;
    int applied = 0;
    for (int a = 0; a < paper.authors.size(); ++a) {
      const std::size_t stripe = registry.StripeOf(paper.authors[a]);
      std::uint64_t& count = (*counts)[stripe];
      if (event.stripe_seqs[static_cast<std::size_t>(a)] <= count) continue;
      ++count;
      ++applied;
      auto& ops = runs[stripe];
      if (ops.empty() || ops.back().first != record) {
        ops.emplace_back(record, 0);
      }
      ops.back().second |= 1u << a;
    }
    // A save cut short leaves the grid behind the stripe files it
    // rewrote, so the grid gates on its own coverage.
    const bool feed_grid =
        !grid_coverage.empty() &&
        event.stripe_seqs[0] >
            grid_coverage[registry.StripeOf(paper.authors[0])];
    if (feed_grid) runs.back().emplace_back(record, 0);
    if (applied == 0 && !feed_grid) {
      ++out->skipped_records;
      continue;
    }
    if (event.type == kWalEventAdd) {
      ++out->applied_adds;
    } else if (applied == paper.authors.size()) {
      ++out->applied_papers;
    } else {
      ++out->partial_papers;
    }
  }
  return runs;
}

/// The parallel phase: one job per non-empty run, all on the shared
/// runtime, then waits for every one. The stripes and the grid are
/// separate structures under separate locks, so no two jobs contend. A
/// stripe's run is its subsequence of the log and the grid run a set of
/// tuples, so the jobs' interleaving cannot change any end state.
void ApplyRuns(const std::vector<WalPayload>& payloads, const Runs& runs,
               HImpactService* service) {
  std::vector<TaskHandle> handles;
  TaskRuntime& runtime = TaskRuntime::Shared();
  // Each job decodes its records again; the gate found them valid.
  const auto apply = [&payloads, service](std::size_t record,
                                          std::uint32_t author_bits,
                                          bool feed_grid) {
    WalEvent event;
    (void)DecodeWalEvent(payloads[record], *service, &event);
    service->ApplyPaper(event.paper, author_bits, feed_grid);
  };
  for (const auto& run : runs) {
    if (run.empty()) continue;
    const bool feed_grid = &run == &runs.back();
    handles.push_back(runtime.Submit([&apply, &run, feed_grid] {
      for (const auto& [record, bits] : run) apply(record, bits, feed_grid);
    }));
  }
  for (TaskHandle& handle : handles) handle.Wait();
}

}  // namespace

std::vector<std::uint8_t> EncodeWalAdd(AuthorId user, std::uint64_t value,
                                       std::uint64_t stripe_seq) {
  ByteWriter writer;
  writer.U8(kWalEventAdd);
  writer.U64(user);
  writer.U64(value);
  writer.U64(stripe_seq);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeWalPaper(
    const PaperTuple& paper, std::span<const std::uint64_t> stripe_seqs) {
  ByteWriter writer;
  writer.U8(kWalEventPaper);
  writer.U64(paper.paper);
  writer.U64(paper.citations);
  writer.U8(static_cast<std::uint8_t>(paper.authors.size()));
  for (int a = 0; a < paper.authors.size(); ++a) {
    writer.U64(paper.authors[a]);
    writer.U64(stripe_seqs[static_cast<std::size_t>(a)]);
  }
  return writer.Take();
}

Status AppendWalAdd(WalWriter* wal, const HImpactService& service,
                    AuthorId user, std::uint64_t value) {
  const TieredUserRegistry& registry = service.registry();
  const std::uint64_t seq = registry.StripeEvents(registry.StripeOf(user));
  return wal->Append(EncodeWalAdd(user, value, seq));
}

Status AppendWalPaper(WalWriter* wal, const HImpactService& service,
                      const PaperTuple& paper) {
  const TieredUserRegistry& registry = service.registry();
  // Post-apply counts: a stripe carrying k of this paper's authors had
  // its count advanced k times, so in author order the authors took
  // `events - k + 1 .. events`; an author followed by j co-authors on
  // its stripe took `events - j`.
  const std::size_t n = static_cast<std::size_t>(paper.authors.size());
  std::array<std::size_t, kMaxAuthorsPerPaper> stripes{};
  for (std::size_t a = 0; a < n; ++a) {
    stripes[a] = registry.StripeOf(paper.authors[static_cast<int>(a)]);
  }
  std::array<std::uint64_t, kMaxAuthorsPerPaper> seqs{};
  for (std::size_t a = 0; a < n; ++a) {
    std::uint64_t later = 0;
    for (std::size_t b = a + 1; b < n; ++b) later += stripes[b] == stripes[a];
    seqs[a] = registry.StripeEvents(stripes[a]) - later;
  }
  return wal->Append(EncodeWalPaper(paper, seqs));
}

Status ReplayWal(const std::string& dir, HImpactService* service,
                 WalReplayStats* read_stats, WalApplyStats* apply_stats) {
  WalApplyStats local;
  WalApplyStats* out = apply_stats != nullptr ? apply_stats : &local;
  *out = WalApplyStats{};

  // The gate's running per-stripe counts start from one snapshot taken
  // before any job runs: a running job advances its stripe's live
  // count, so gating against the live count would skip records.
  const TieredUserRegistry& registry = service->registry();
  std::vector<std::uint64_t> counts(registry.num_stripes());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    counts[s] = registry.StripeEvents(s);
  }
  const std::vector<std::uint64_t> grid_coverage = service->GridCoverage();
  return ScanWal(dir, read_stats,
                 [&](const std::vector<WalPayload>& payloads) {
                   ApplyRuns(payloads,
                             GateSegment(payloads, *service, grid_coverage,
                                         &counts, out),
                             service);
                 });
}

}  // namespace himpact
