#ifndef HIMPACT_SERVICE_SERVICE_H_
#define HIMPACT_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
/// (service/registry.h) with a striped Algorithm 8 heavy-hitters grid
/// and adds service-level checkpoint/restore. It is the layer
/// `hstream_serve`, the examples, and the F4 load harness sit on: ingest
/// threads call `RecordResponseCount` / `IngestPaper` while query
/// threads call `PointHIndex` / `TopK` / `HeavyReport` / `Stats`
/// concurrently.
///
/// Checkpoint layout (mirrors the shard set's manifest convention from
/// engine/shard_set.h): one `kServiceStripe` envelope per stripe at
/// `path.stripe-<i>` holding that stripe's registry state plus its
/// heavy-hitters shard, written *before* a final `kServiceManifest`
/// envelope at `path` that records the configuration — so a manifest
/// that opens implies the stripes it references were durably written.
/// `RestoreFrom` decodes everything into fresh state and only then
/// swaps it in; a damaged checkpoint leaves the service unchanged.
///
/// A checkpoint is always a full save: every stripe file is rewritten.
/// The incremental delta chain of earlier builds (`path.head` plus
/// `path.delta-<g>`) is not read: `RestoreFrom` rejects a checkpoint
/// whose head names a generation above 0, and a save removes a stale
/// head once its stripe files have landed. See docs/CHECKPOINTS.md.

namespace himpact {

/// Decoded `kServiceManifest` contents.
struct ServiceManifest {
  ServiceOptions options;
  std::uint64_t total_events = 0;
};

/// Checkpoint-path counters (runtime-only, surfaced via `health`).
struct CheckpointCounters {
  std::uint64_t full_saves = 0;
  /// Stripe payload bytes written by all saves.
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
  /// `HeavyReport` answers served from the epoch-tagged merged-grid
  /// cache vs recomputed because some heavy-hitters stripe advanced
  /// (see docs/PERFORMANCE.md, "Epoch-cached merge-on-query").
  std::uint64_t hh_report_cache_hits = 0;
  std::uint64_t hh_report_cache_misses = 0;
  /// `TryTopK` answers degraded to a lower bound because the scan ran
  /// out of `ServiceOptions::top_deadline_nanos`.
  std::uint64_t deadline_exceeded = 0;
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
  /// user's updated H-index estimate. A synthetic paper id is minted
  /// for the heavy-hitters grid. Thread-safe.
  double RecordResponseCount(AuthorId user, std::uint64_t value);

  /// Observes one multi-author paper tuple: each author's registry
  /// state absorbs the paper's response count, and the tuple is fed
  /// once to the heavy-hitters grid. Thread-safe.
  void IngestPaper(const PaperTuple& paper);

  /// WAL-replay surface (service/wal_apply.cc): re-applies one logged
  /// paper where only the authors with `apply_mask[i]` set still miss
  /// it (the restored checkpoint may have captured some authors'
  /// stripes after the paper and others before). The tuple is fed to
  /// the heavy-hitters grid iff `feed_hh`, which should be the first
  /// author's gate verdict, matching `IngestPaper`'s
  /// partition-by-first-author attribution. Replay applies the two
  /// halves as separate calls: a stripe's gated authors with
  /// `feed_hh` false, and the grid feed with an empty mask. Thread-safe.
  void ReplayPaper(const PaperTuple& paper,
                   const std::vector<bool>& apply_mask, bool feed_hh);

  /// WAL-replay surface: the grid half of one logged
  /// `RecordResponseCount` — feeds the heavy-hitters grid the synthetic
  /// tuple that call fed (the next id of the user's stripe) and leaves
  /// the registry alone. The registry half is a one-author
  /// `ReplayPaper`, so replay can apply the two halves as separate
  /// jobs. No-op when the grid is disabled. Thread-safe.
  void ReplayResponseCountGrid(AuthorId user, std::uint64_t value);

  /// The user's current H-index estimate (0 if never seen).
  double PointHIndex(AuthorId user) const;

  /// Detailed per-user lookup; false if the user was never seen.
  bool Lookup(AuthorId user, UserSnapshot* out) const;

  /// The `k` users with the largest maintained estimates; waits for
  /// every stripe lock.
  std::vector<LeaderboardEntry> TopK(std::size_t k) const;

  /// Heavy-hitter candidates from the merged grid (empty when the grid
  /// is disabled). Merging on query mirrors the engine's
  /// merge-on-query discipline; cost is proportional to grid size.
  /// Epoch-cached: the merged report is kept alongside the per-stripe
  /// ingest epochs that produced it and only recomputed when some
  /// stripe absorbed papers since (docs/PERFORMANCE.md); hit/miss
  /// counts surface in `Stats()`.
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

  /// Writes per-stripe envelopes to `path.stripe-<i>`, removes a stale
  /// `path.head` left by an earlier build's delta chain, then writes the
  /// manifest to `path`. Concurrent ingest is allowed (each stripe is
  /// snapshotted under its own lock), so the checkpoint is per-stripe
  /// consistent rather than a global cut. Concurrent checkpoints and
  /// restores serialize.
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
  /// fresh state before swapping it in. A delta chain at `path` is also
  /// `kFailedPrecondition` (see `CheckNotADeltaChain`).
  Status RestoreFrom(const std::string& path);

  /// `kFailedPrecondition` when `path` holds an earlier build's delta
  /// chain: a `path.head` naming a generation above 0, or one that does
  /// not decode. Its newest state lives in deltas this build does not
  /// read, and a save to `path` would replace it for good. OK when there
  /// is no head or it names generation 0 (a plain full save).
  static Status CheckNotADeltaChain(const std::string& path);

  /// The per-stripe envelope path (`path.stripe-<i>`).
  static std::string StripePath(const std::string& path, std::size_t i);

  /// The registry's (and service's) configuration.
  const ServiceOptions& options() const { return registry_.options(); }

  /// Read access to the underlying registry (tests, examples).
  const TieredUserRegistry& registry() const { return registry_; }

 private:
  /// One heavy-hitters shard; all shards share options and seed so the
  /// on-query merge is legal (see HeavyHitters::Merge).
  struct HhStripe {
    mutable std::mutex mu;
    std::optional<HeavyHitters> hh;
    /// Mints synthetic paper ids for `RecordResponseCount`:
    /// `next_paper * num_stripes + stripe_index` is unique globally and
    /// deterministic per stripe (checkpointed so resumed runs continue
    /// the same id sequence).
    std::uint64_t next_paper = 0;
    /// Ingest epoch: bumped (release, under `mu`) after every AddPaper.
    /// `HeavyReport` reads it (acquire, lock-free) to decide whether
    /// its cached merged report is still current; reading the epoch
    /// *before* merging makes mid-merge ingest tag the cache stale.
    std::atomic<std::uint64_t> version{0};
  };

  /// `HeavyReport`'s epoch-tagged cache of the merged-grid report.
  /// Behind a unique_ptr (std::mutex is immovable; the service moves).
  /// Lock order: `cache.mu` then stripe `mu`s, never the reverse.
  struct HhReportCache {
    std::mutex mu;
    bool valid = false;
    /// Stripe ingest epochs captured *before* the merge that produced
    /// `reports` (conservative tags).
    std::vector<std::uint64_t> versions;
    std::vector<HeavyHitterReport> reports;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Behind a unique_ptr (std::mutex is immovable; the service moves).
  struct CheckpointState {
    /// Held for the full duration of a checkpoint or restore, so two
    /// callers never interleave their file writes. Lock order: `op_mu`,
    /// then `mu`, then stripe locks, never the reverse.
    mutable std::mutex op_mu;
    /// Guards `counters` only, so `Stats()` never waits on a save.
    mutable std::mutex mu;
    CheckpointCounters counters;
  };

  explicit HImpactService(TieredUserRegistry registry);

  std::vector<std::unique_ptr<HhStripe>> MakeHhStripes() const;
  /// Feeds the grid the one-author tuple of a response count, under a
  /// paper id minted from the user's stripe. Requires the grid enabled.
  void FeedResponseCount(AuthorId user, std::uint64_t value);
  /// Stripe `i`'s checkpoint payload: its registry state plus its
  /// heavy-hitters shard.
  std::vector<std::uint8_t> SnapshotStripe(std::size_t i) const;
  /// Decodes one stripe payload (registry stripe + heavy-hitters shard)
  /// into the fresh state being assembled by a restore.
  Status DecodeStripePayload(std::size_t i,
                             const std::vector<std::uint8_t>& payload,
                             TieredUserRegistry& registry,
                             std::vector<std::unique_ptr<HhStripe>>& hh) const;

  TieredUserRegistry registry_;
  std::vector<std::unique_ptr<HhStripe>> hh_stripes_;
  std::unique_ptr<HhReportCache> hh_report_cache_;
  /// `TryTopK` answers degraded by the deadline (behind a unique_ptr
  /// because std::atomic is immovable; the service moves).
  std::unique_ptr<std::atomic<std::uint64_t>> deadline_exceeded_;
  std::unique_ptr<CheckpointState> checkpoint_;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_SERVICE_H_
