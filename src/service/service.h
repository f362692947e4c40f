#ifndef HIMPACT_SERVICE_SERVICE_H_
#define HIMPACT_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "heavy/heavy_hitters.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "stream/types.h"

/// \file
/// The multi-tenant H-impact query service.
///
/// `HImpactService` composes the tiered per-user registry
/// (service/registry.h) with one Algorithm 8 heavy-hitters grid over the
/// whole paper stream, and adds service-level checkpoint/restore. It is
/// the layer `hstream_serve` and the examples sit on: ingest threads
/// call `RecordResponseCount` / `IngestPaper` while query threads call
/// `PointHIndex` / `TopK` / `HeavyReport` / `Stats` concurrently.
///
/// Checkpoint layout (mirrors the shard set's manifest convention from
/// engine/shard_set.h): one `kServiceStripe` envelope per stripe at
/// `path.stripe-<i>` holding that stripe's registry state, then the
/// grid's `kServiceGrid` envelope at `path.grid` with the stripe counts
/// it was saved at (when heavy hitters are enabled), written *before* a final `kServiceManifest` envelope at
/// `path` that records the configuration — so a manifest that opens
/// implies the files it references were durably written. `RestoreFrom`
/// decodes everything into fresh state and only then swaps it in; a
/// damaged checkpoint leaves the service unchanged.
///
/// A checkpoint is always a full save: every file is rewritten. A
/// restore reads only the layouts this build writes; an earlier build's
/// is refused, not read: a delta chain (`path.head` naming a generation
/// above 0), a grid in an earlier layout (`HIMPHHS1`, `HIMPHHS2`) and a
/// stripe in an earlier layout (`HIMPSRG1`–`HIMPSRG3`, which carried a
/// grid of their own, and `HIMPSRG4`, which wrote users fixed-width).
/// See docs/CHECKPOINTS.md.
///
/// The grid is a pure function of its papers, so `HeavyReport` over an
/// `IngestPaper`-only stream is the same at every stripe count. An add
/// is a one-author paper whose id derives from its stripe's event
/// sequence (`ResponseCountPaper`); that id depends on the stripe
/// count, so add-fed grids are not stripe-independent.

namespace himpact {

/// The options of a service's heavy-hitters grid, which is
/// `HeavyHitters::Create(HhOptions(options), options.seed)`.
HeavyHitters::Options HhOptions(const ServiceOptions& options);

/// Decoded `kServiceManifest` contents.
struct ServiceManifest {
  ServiceOptions options;
  std::uint64_t total_events = 0;
};

/// Checkpoint-path counters (runtime-only, surfaced via `health`).
struct CheckpointCounters {
  std::uint64_t full_saves = 0;
  /// Stripe and grid payload bytes written by all saves.
  std::uint64_t bytes_full = 0;
  /// Always 0. Read by nothing in `src/`; goes with the next perfbench
  /// change (ROADMAP item 6).
  std::uint64_t bytes_incremental = 0;
};

/// Compatibility name for `perfbench/tool.cc`: read by nothing in
/// `src/`; goes with the next perfbench change (ROADMAP item 6). Every
/// save is a full save whatever the mode.
enum class SaveMode : unsigned char {
  kFull = 0,
  kIncremental = 1,
};

/// Aggregate service counters for `Stats()` reporting.
struct ServiceStats {
  RegistryStats registry;
  CheckpointCounters checkpoint;
  /// Papers observed by the heavy-hitters grid (0 when disabled).
  std::uint64_t hh_papers = 0;
  /// `HeavyReport` answers served from the epoch-tagged report cache vs
  /// recomputed because the grid absorbed papers since (see
  /// docs/PERFORMANCE.md, "Epoch-cached heavy report").
  std::uint64_t hh_report_cache_hits = 0;
  std::uint64_t hh_report_cache_misses = 0;
  /// `TryTopK` answers degraded to a lower bound because the scan ran
  /// out of `ServiceOptions::top_deadline_nanos`.
  std::uint64_t deadline_exceeded = 0;
};

/// One write of a run (`HImpactService::ApplyRun`): an add or a paper,
/// with where its apply reports back.
struct ServiceWrite {
  /// The write's authors and response count. An add of `value` for
  /// `user` is the tuple with the one author `user` and `citations =
  /// value`; its id is unused.
  const PaperTuple* paper = nullptr;
  /// An add: the grid sees `ResponseCountPaper` for it, built from the
  /// stripe sequence its author's step took, so that author must be
  /// applied whenever `feed_grid` is set.
  bool add = false;
  /// Author `a` is applied iff bit `a` is set (replay passes its gate's
  /// verdicts).
  std::uint32_t author_bits = ~std::uint32_t{0};
  /// Whether the write's tuple goes to the heavy-hitters grid.
  bool feed_grid = true;
  /// When not null, `stripe_seqs[a]` receives applied author `a`'s
  /// post-apply stripe sequence (the value the WAL logs); entries of
  /// unapplied authors are left alone.
  std::uint64_t* stripe_seqs = nullptr;
  /// Out: the user's estimate after the write's last applied author's
  /// step (an add's reply).
  double estimate = 0.0;
};

/// A top-k answer that may be degraded: when `stripes_skipped > 0` the
/// deadline cut the scan short and `entries` covers only the merged
/// stripes — still a valid lower-bound leaderboard, explicitly tagged.
struct TopKResult {
  std::vector<LeaderboardEntry> entries;
  std::size_t stripes_skipped = 0;
};

/// A thread-safe multi-tenant H-impact store with point, top-k, and
/// heavy-hitter queries.
class HImpactService {
 public:
  /// Validates options and builds an empty service.
  static StatusOr<HImpactService> Create(const ServiceOptions& options);

  HImpactService(HImpactService&&) noexcept = default;
  HImpactService& operator=(HImpactService&&) noexcept = default;

  /// Observes one response count for `user` (the aggregate model: one
  /// paper / post whose total responses are `value`) and returns the
  /// user's updated H-index estimate. The heavy-hitters grid sees the
  /// add as the one-author paper `ResponseCountPaper` builds from the
  /// stripe sequence the add took, which `*stripe_seq` receives when
  /// given (the value the WAL logs). Thread-safe.
  double RecordResponseCount(AuthorId user, std::uint64_t value,
                             std::uint64_t* stripe_seq = nullptr);

  /// Observes one multi-author paper tuple: each author's registry
  /// state absorbs the paper's response count, and the tuple is fed
  /// once to the heavy-hitters grid. Thread-safe.
  void IngestPaper(const PaperTuple& paper) {
    ApplyPaper(paper, ~std::uint32_t{0}, /*feed_grid=*/true);
  }

  /// `IngestPaper` as a run of one (`ApplyRun`): author `a`'s registry
  /// state absorbs the paper iff bit `a` of `author_bits` is set, and
  /// the tuple is fed to the heavy-hitters grid iff `feed_grid`. When
  /// given, `stripe_seqs[a]` receives applied author `a`'s post-apply
  /// stripe sequence. Thread-safe.
  void ApplyPaper(const PaperTuple& paper, std::uint32_t author_bits,
                  bool feed_grid, std::uint64_t* stripe_seqs = nullptr);

  /// The apply step of serving and WAL replay (service/wal_apply.cc):
  /// applies a run of writes as one batch. Every applied author event of
  /// the run, in write and author order, goes through one
  /// `TieredUserRegistry::ApplyRun` (one lock per touched stripe), then
  /// the grid tuples of the writes that feed it go to the grid under one
  /// lock (`HeavyHitters::AddPaperBatch`). A write without authors is
  /// skipped. The end state equals applying the writes one by one:
  /// each stripe sees its own events in order, and the grid is a
  /// function of the set of its tuples. Thread-safe.
  void ApplyRun(std::span<ServiceWrite> writes);

  /// The one-author paper an add of `value` for `user` is to the
  /// heavy-hitters grid, with id `stripe_seq * num_stripes + stripe`:
  /// `stripe` is the user's stripe and `stripe_seq` its event count
  /// after the add (the value the WAL logs). Every event takes its own
  /// stripe sequence, so ids never repeat, and they lie above the ids an
  /// earlier build's counter minted (that counter never passed the
  /// stripe's event count).
  PaperTuple ResponseCountPaper(AuthorId user, std::uint64_t value,
                                std::uint64_t stripe_seq) const;

  /// The user's current H-index estimate (0 if never seen).
  double PointHIndex(AuthorId user) const;

  /// Detailed per-user lookup; false if the user was never seen.
  bool Lookup(AuthorId user, UserSnapshot* out) const;

  /// The `k` users with the largest maintained estimates; waits for
  /// every stripe lock.
  std::vector<LeaderboardEntry> TopK(std::size_t k) const;

  /// Heavy-hitter candidates from the grid (empty when the grid is
  /// disabled), reported in place under the grid lock. Epoch-cached: the
  /// report is kept with the grid epoch that produced it and recomputed
  /// only when the grid absorbed papers since (docs/PERFORMANCE.md);
  /// hit/miss counts surface in `Stats()`.
  std::vector<HeavyHitterReport> HeavyReport() const;

  /// Aggregate counters (per-stripe consistent snapshot).
  ServiceStats Stats() const;

  /// `RecordResponseCount` and `IngestPaper` under the status-returning
  /// signatures that `perfbench/tool.cc` calls; they always succeed, so
  /// an applied write is never reported as failed. They go with the next
  /// perfbench change.
  StatusOr<double> TryRecordResponseCount(AuthorId user, std::uint64_t value);
  Status TryIngestPaper(const PaperTuple& paper);

  /// Top-k under `ServiceOptions::top_deadline_nanos`. With a budget it
  /// degrades instead of waiting: stripes it cannot lock in time are
  /// skipped (and counted in the result tag and
  /// `Stats().deadline_exceeded`), so a wedged stripe costs coverage,
  /// not availability. With none (0) it waits like `TopK`. Always OK.
  StatusOr<TopKResult> TryTopK(std::size_t k);

  /// Writes per-stripe envelopes to `path.stripe-<i>`, then the grid to
  /// `path.grid` with the stripe event counts it was saved at (or, with
  /// heavy hitters disabled, removes a stale one), removes a stale
  /// `path.head` left by an earlier build's delta chain, then writes the
  /// manifest to `path`. Concurrent ingest is allowed (each stripe and
  /// the grid are snapshotted under their own locks), so the checkpoint
  /// is per-stripe consistent rather than a global cut. Concurrent
  /// checkpoints and restores serialize.
  Status CheckpointTo(const std::string& path) const;

  /// `CheckpointTo(path)`; the mode is ignored. Read by nothing in
  /// `src/`; goes with the next perfbench change (ROADMAP item 6).
  Status CheckpointTo(const std::string& path, SaveMode /*mode*/) const {
    return CheckpointTo(path);
  }

  /// Reads and decodes the manifest at `path`.
  static StatusOr<ServiceManifest> ReadManifest(const std::string& path);

  /// Restores service state from a `CheckpointTo` checkpoint whose
  /// configuration matches this service's options
  /// (`kFailedPrecondition` otherwise). All-or-nothing: decodes into
  /// fresh state before swapping it in.
  ///
  /// An earlier build's format this build does not read is also
  /// `kFailedPrecondition` and sets `*refused` (when given): a delta chain
  /// (a `path.head` past generation 0, or one that does not decode), a
  /// `path.grid` in an earlier grid layout, or a stripe file in an
  /// earlier stripe layout. A save to `path` would destroy state only the
  /// earlier build can serve, so a server must not start fresh over it.
  Status RestoreFrom(const std::string& path, bool* refused = nullptr);

  /// The per-stripe envelope path (`path.stripe-<i>`).
  static std::string StripePath(const std::string& path, std::size_t i);

  /// The grid envelope path (`path.grid`).
  static std::string GridPath(const std::string& path);

  /// Per stripe, the event count up to which the grid holds every tuple
  /// whose first author is on it: the stripe counts the restored grid
  /// was saved at, or all 0 before any restore. `ReplayWal` gates the
  /// grid on them; live writes do not advance them. Empty when heavy
  /// hitters are disabled.
  std::vector<std::uint64_t> GridCoverage() const;

  /// The registry's (and service's) configuration.
  const ServiceOptions& options() const { return registry_.options(); }

  /// Read access to the underlying registry (tests, examples).
  const TieredUserRegistry& registry() const { return registry_; }

 private:
  /// The Algorithm 8 grid (empty when disabled) and `HeavyReport`'s
  /// cache of its report. Behind a unique_ptr (std::mutex is immovable;
  /// the service moves).
  struct Grid {
    std::mutex mu;
    std::optional<HeavyHitters> hh;
    /// See `GridCoverage`.
    std::vector<std::uint64_t> coverage;
    /// The paper count `reports` was computed at: every fed paper bumps
    /// the count, so it is the cache's epoch. A restore clears it.
    std::optional<std::uint64_t> reports_epoch;
    std::vector<HeavyHitterReport> reports;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Behind a unique_ptr (std::mutex is immovable; the service moves).
  struct CheckpointState {
    /// Held for the full duration of a checkpoint or restore, so two
    /// callers never interleave their file writes. Lock order: `op_mu`,
    /// then `mu`, then stripe or grid locks, never the reverse.
    mutable std::mutex op_mu;
    /// Guards `counters` only, so `Stats()` never waits on a save.
    mutable std::mutex mu;
    CheckpointCounters counters;
  };

  HImpactService(TieredUserRegistry registry,
                 std::optional<HeavyHitters> grid);


  TieredUserRegistry registry_;
  std::unique_ptr<Grid> grid_;
  /// `TryTopK` answers degraded by the deadline (behind a unique_ptr
  /// because std::atomic is immovable; the service moves).
  std::unique_ptr<std::atomic<std::uint64_t>> deadline_exceeded_;
  std::unique_ptr<CheckpointState> checkpoint_;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_SERVICE_H_
