#ifndef HIMPACT_SERVICE_REGISTRY_H_
#define HIMPACT_SERVICE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/exponential_histogram.h"
#include "service/user_index.h"
#include "storage/segment_store.h"
#include "stream/types.h"

/// \file
/// Sharded per-user tiered state for the multi-tenant H-impact service.
///
/// The registry owns one state record per user, partitioned across
/// lock-striped shards ("stripes") by a SplitMix64 hash of the user id,
/// and keeps total memory under a configured budget with four tiers:
///
///  * **cold** — a user seen fewer than `promote_threshold` times keeps
///    its raw response counts and an exactly maintained H-index. Most
///    users of a heavy-tailed population stay here forever, in a few
///    dozen bytes each.
///  * **hot** — once a user crosses the threshold, the raw values are
///    replayed into a per-user Algorithm 1 sketch
///    (`ExponentialHistogramEstimator`, `2/eps log max_h` words
///    regardless of further volume) and the raw values are dropped.
///  * **segment** — with a segment directory configured
///    (`ServiceOptions::segment_dir`), an over-budget stripe demotes
///    its least-recently-updated users by *paging them out*: the full
///    cold/hot state is serialized into the stripe's mmap-backed
///    segment store (storage/segment_store.h) and the per-user RAM
///    footprint drops to a bare record whose floor is the live estimate
///    at page-out. Nothing changes a paged user until its next event, so
///    a `get` answers that floor from RAM — byte-identical to the
///    pre-eviction answer — and only a reactivating `add` pages the
///    record in, restoring the state and continuing it live, so nothing
///    is forgotten; RAM is bounded by paging, not by loss. A failed
///    page-in degrades to the frozen reactivation (below), never crashes.
///  * **frozen** — without a segment directory, demotion forgets: the
///    sketch's estimate is frozen as a floor, the cold values or sketch
///    are dropped, and the per-user footprint drops to a bare record. A
///    frozen user that becomes active again is re-promoted to a fresh
///    hot sketch; because an H-index is monotone non-decreasing,
///    `max(floor, fresh estimate)` remains a valid lower bound with the
///    usual one-sided Algorithm 1 guarantee on the post-reactivation
///    stream. See docs/SERVICE.md for the accounting and staleness
///    rules.
///
/// Thread safety: every public method is safe to call from any thread;
/// each stripe is guarded by its own mutex, so operations on users in
/// different stripes proceed in parallel. No method holds two stripe
/// locks at once (`ApplyRun` takes its stripes one after another, in
/// ascending order), so the registry cannot deadlock against itself.

namespace himpact {

/// Configuration of the service layer (registry + query service).
struct ServiceOptions {
  /// Approximation parameter of the per-user hot-tier sketches.
  double eps = 0.1;
  /// Upper bound on any single user's H-index (the sketch guess cap).
  std::uint64_t max_h = 1u << 20;
  /// Number of lock stripes (hash shards) for per-user state.
  std::size_t num_stripes = 8;
  /// Events after which a cold user is promoted to a hot sketch.
  std::uint64_t promote_threshold = 64;
  /// Total per-user state budget across all stripes, in bytes.
  std::uint64_t memory_budget_bytes = 64ull << 20;
  /// Per-stripe leaderboard capacity; `TopK(k)` requires `k <=`
  /// this (the maintained board is the TopK source of truth).
  std::size_t leaderboard_capacity = 64;
  /// Feed every event through an Algorithm 8 heavy-hitters grid too
  /// (service-level; the registry itself ignores this).
  bool enable_heavy_hitters = true;
  /// Heavy-hitters grid parameters (see heavy/heavy_hitters.h).
  double hh_eps = 0.25;
  double hh_delta = 0.1;
  std::uint64_t hh_max_papers = 1u << 20;
  /// Seed for the heavy-hitters hash grid.
  std::uint64_t seed = 2017;
  /// Directory for the per-stripe segment stores (the paged cold tier).
  /// Empty disables paging: demotion freezes users instead. Runtime-only
  /// — NOT part of the checkpoint manifest, so a checkpoint restores
  /// into a service with any (or no) segment directory.
  std::string segment_dir;
  /// Read by nothing in `src/`; goes with the next perfbench change
  /// (ROADMAP item 6).
  std::uint64_t max_chain_len = 64;
  /// Time budget of one `HImpactService::TryTopK` stripe scan in
  /// nanoseconds (0 = none): a stripe still locked when it runs out is
  /// skipped and the answer is tagged as a lower bound. Runtime-only,
  /// like `segment_dir` — not part of the checkpoint manifest.
  std::uint64_t top_deadline_nanos = 0;
};

/// Which tier a user's state currently occupies. Values are the
/// checkpoint and wire encoding: append only, never renumber.
enum class UserTier : std::uint8_t {
  kCold = 0,
  kHot = 1,
  kFrozen = 2,
  kSegment = 3,
};

/// One leaderboard row.
struct LeaderboardEntry {
  AuthorId user = 0;
  double estimate = 0.0;
};

/// One author event of a run (`TieredUserRegistry::ApplyRun`): `value`
/// responses observed for `user`.
struct UserEvent {
  AuthorId user = 0;
  std::uint64_t value = 0;
};

/// Point-lookup result for one user.
struct UserSnapshot {
  AuthorId user = 0;
  UserTier tier = UserTier::kCold;
  std::uint64_t events = 0;
  double estimate = 0.0;
};

/// Aggregate registry counters (all stripes summed).
struct RegistryStats {
  std::uint64_t total_events = 0;
  std::uint64_t num_users = 0;
  std::uint64_t cold_users = 0;
  std::uint64_t hot_users = 0;
  std::uint64_t frozen_users = 0;
  std::uint64_t segment_users = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t budget_bytes = 0;
  /// Sketch allocations vetoed by the `alloc-fail` fault point. Each one
  /// kept the user on its previous (exact or frozen-floor) state, so
  /// estimates stay valid lower bounds; see docs/ROBUSTNESS.md.
  std::uint64_t alloc_failures = 0;
  /// Segment-store aggregates (zero when no segment_dir is configured).
  /// Sealed segment files / bytes are state-like; the page-in and
  /// failure counts are runtime counters surfaced via `health`.
  std::uint64_t segment_files = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t segment_pending_records = 0;
  std::uint64_t segment_seals = 0;
  std::uint64_t page_ins = 0;
  /// Page-ins served from a store's unsealed pending buffer.
  std::uint64_t page_in_cache_hits = 0;
  std::uint64_t page_in_failures = 0;
  /// Sealed bytes whose records have been superseded (a user re-paged
  /// and re-demoted under a newer generation) or forgotten — space a
  /// future segment compactor would reclaim. Today it is only freed
  /// when a restore rebuilds the stripe's store.
  std::uint64_t segment_dead_bytes = 0;
};

/// The sharded, budgeted, tiered per-user store.
class TieredUserRegistry {
 public:
  /// Validates options and builds an empty registry.
  static StatusOr<TieredUserRegistry> Create(const ServiceOptions& options);

  TieredUserRegistry(TieredUserRegistry&&) noexcept = default;
  TieredUserRegistry& operator=(TieredUserRegistry&&) noexcept = default;

  /// Observes one response count for `user` (one paper / post with
  /// `value` responses, aggregate model) and returns the user's updated
  /// H-index estimate: a run of one event (`ApplyRun`). When
  /// `stripe_seq` is given it receives the user's stripe's event count
  /// after this event (see `StripeEvents`). Thread-safe; may promote
  /// the user or demote colder users to stay under budget.
  double Add(AuthorId user, std::uint64_t value,
             std::uint64_t* stripe_seq = nullptr);

  /// Applies a run of author events in log order, each with the
  /// per-author step of `Add` (tier moves, leaderboard, budget check).
  /// The events are grouped by stripe, keeping log order within each,
  /// and each touched stripe's lock is taken once, in ascending stripe
  /// order, for its whole share of the run: a stall, page-in or seal in
  /// one event's step holds its stripe for the run. A stripe's state
  /// depends only on its own events, so the result equals applying the
  /// events one by one. When not null, `stripe_seqs[i]` receives event
  /// `i`'s stripe's event count after its step (events on one stripe
  /// get consecutive values) and `estimates[i]` the user's estimate
  /// after it; each needs room for `events.size()` values. Thread-safe.
  void ApplyRun(std::span<const UserEvent> events,
                std::uint64_t* stripe_seqs = nullptr,
                double* estimates = nullptr);

  /// The user's current H-index estimate (0 if never seen). For cold
  /// users this is exact; for hot users it carries Algorithm 1's
  /// one-sided `(1-eps)` guarantee; for frozen users it is the frozen
  /// lower bound. Thread-safe.
  double PointHIndex(AuthorId user) const;

  /// Detailed lookup; returns false if the user was never seen.
  bool Lookup(AuthorId user, UserSnapshot* out) const;

  /// The `k` users with the largest maintained estimates, descending
  /// (ties broken by smaller user id), merged from the per-stripe
  /// leaderboards; requires `k <= leaderboard_capacity`. With
  /// `deadline_nanos == 0` each stripe lock is taken blocking. Otherwise
  /// `deadline_nanos` is an absolute `FaultClock` deadline: a stripe
  /// whose lock cannot be acquired before it — e.g. one wedged behind a
  /// stalled writer — is skipped and counted in `*stripes_skipped`
  /// (required then). Because maintained estimates only grow, the
  /// partial board is a valid lower-bound leaderboard over the merged
  /// stripes (see docs/ROBUSTNESS.md, "Degraded answers").
  std::vector<LeaderboardEntry> TopK(
      std::size_t k, std::uint64_t deadline_nanos = 0,
      std::size_t* stripes_skipped = nullptr) const;

  /// Aggregate counters across stripes. Thread-safe; the snapshot is
  /// per-stripe consistent, not a global atomic cut.
  RegistryStats Stats() const;

  /// Number of lock stripes.
  std::size_t num_stripes() const { return stripes_.size(); }

  /// The stripe index `user` hashes to (stable across restarts).
  std::size_t StripeOf(AuthorId user) const;

  /// Events ever applied to stripe `i` (each `Add` counts one; restored
  /// state carries the count forward). This is the WAL replay gate: a
  /// logged record is re-applied iff its recorded post-apply stripe
  /// sequence exceeds this value, the per-stripe analogue of a page
  /// LSN — checkpoints are per-stripe consistent cuts, so a single
  /// global sequence could not decide correctly. Takes the stripe lock.
  std::uint64_t StripeEvents(std::size_t i) const;

  /// The registry's configuration.
  const ServiceOptions& options() const { return options_; }

  /// Serializes stripe `i` (users, leaderboard, counters) into
  /// `writer`. Takes that stripe's lock.
  void SerializeStripe(std::size_t i, ByteWriter& writer) const;

  /// Restores stripe `i` from a `SerializeStripe` payload, replacing
  /// its current contents. Rejects foreign or corrupt payloads (and
  /// payloads recorded for a different stripe index or stripe count)
  /// with `kInvalidArgument`, leaving the stripe unchanged. An earlier
  /// build's payload (`HIMPSRG1`–`HIMPSRG3`; the first two carried an
  /// archive sketch) also decodes. Sets `*layout` (when given) to the
  /// payload's layout number, 1 to 4.
  Status DeserializeStripe(std::size_t i, ByteReader& reader,
                           int* layout = nullptr);

 private:
  struct UserState {
    UserTier tier = UserTier::kCold;
    /// In the stripe's `resident` list (fills padding after `tier`).
    bool listed = false;
    std::uint64_t events = 0;
    std::uint64_t last_touch = 0;
    /// Carried lower bound (frozen estimate survives demotion cycles).
    double floor = 0.0;
    /// Cold tier: exactly maintained H-index of `values`.
    std::uint64_t cold_h = 0;
    /// Cold tier: the raw response counts, replayed on promotion.
    std::vector<std::uint64_t> values;
    /// Hot tier: the per-user Algorithm 1 sketch.
    std::unique_ptr<ExponentialHistogramEstimator> sketch;
  };

  struct Stripe {
    mutable std::mutex mu;
    UserIndex<UserState> users;
    /// Budget-scan candidates: every cold/hot user, plus users demoted
    /// since the last scan, which drops them (see `UserState::listed`).
    std::vector<AuthorId> resident;
    /// Maintained top-`leaderboard_capacity` users of this stripe, in
    /// insertion order (sorted on query).
    std::vector<LeaderboardEntry> board;
    /// The smallest estimate on `board` once it is full (refreshed after
    /// every board change and restore; unused while it has room).
    double board_min = 0.0;
    std::uint64_t events = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t touch_clock = 0;
    std::uint64_t resident_bytes = 0;
    /// Irreducible residency observed by the last budget scan that
    /// could not reach its target: everything evictable was demoted and
    /// this much remained (the bare per-user records). While
    /// `resident_bytes` stays within a slack band above this floor,
    /// further scans are pointless and are skipped — without it,
    /// a population whose bare metadata exceeds the budget degrades to
    /// a full victim scan per Add. Reset to 0 whenever a scan meets its
    /// target again (restores shrink residency below old floors).
    std::uint64_t unmeetable_floor_bytes = 0;
    /// Sketch allocations vetoed by the `alloc-fail` fault point
    /// (runtime counter; deliberately not checkpointed).
    std::uint64_t alloc_failures = 0;
    /// Segment records that were read but did not decode (runtime
    /// counter, part of `RegistryStats::page_in_failures`).
    std::uint64_t undecodable_records = 0;
    /// The paged cold tier (null when segment_dir is empty). Guarded by
    /// `mu` — the store itself is not thread-safe.
    std::unique_ptr<SegmentStore> store;
  };

  explicit TieredUserRegistry(const ServiceOptions& options);

  // Per-entry byte model (approximate but consistent, used for budget
  // accounting): a fixed overhead per tracked user plus the tier's
  // variable storage.
  static std::uint64_t BaseBytes();
  static std::uint64_t ColdExtraBytes(const UserState& state);
  static std::uint64_t HotExtraBytes(const UserState& state);
  std::uint64_t EntryBytes(const UserState& state) const;

  /// The stripe of a user whose id hashes to `hash` (`SplitMix64`).
  Stripe& StripeOfHash(std::uint64_t hash) const {
    return *stripes_[static_cast<std::size_t>(hash % stripes_.size())];
  }
  /// `Add`'s per-author step; the caller holds `stripe.mu`. `hash` is
  /// `SplitMix64(user)`, and `state` the user's entry when the caller
  /// already found it (null: looked up here, inserted when absent).
  double AddLocked(Stripe& stripe, AuthorId user, std::uint64_t hash,
                   std::uint64_t value, UserState* state,
                   std::uint64_t* stripe_seq);
  /// `ApplyRun`'s pass over one stripe's events, `order` (indices into
  /// `events` and `hashes`, in log order); the caller holds `stripe.mu`.
  void ApplyStripeRunLocked(Stripe& stripe, std::span<const UserEvent> events,
                            std::span<const std::uint64_t> hashes,
                            std::span<const std::uint32_t> order,
                            std::uint64_t* stripe_seqs, double* estimates);
  double EstimateLocked(const UserState& state) const;
  void PromoteLocked(Stripe& stripe, UserState& state);
  void DemoteLocked(Stripe& stripe, AuthorId user, UserState& state);
  void UpdateBoardLocked(Stripe& stripe, AuthorId user, double estimate);
  void RefreshBoardMinLocked(Stripe& stripe) const;
  void EnforceBudgetLocked(Stripe& stripe);
  ExponentialHistogramEstimator MakeSketch() const;
  Status AttachSegmentStores();
  /// (Re)opens stripe `i`'s segment store on the generations below
  /// `generation_bound`. Caller holds the stripe lock or owns the
  /// registry exclusively.
  Status OpenSegmentStore(std::size_t i, std::uint64_t generation_bound);
  /// Pages a segment-resident user's state back into RAM (tier returns
  /// to cold/hot, the record is forgotten); on page-in failure degrades
  /// to a frozen-style fresh sketch over the suffix (floor kept).
  void ReactivateLocked(Stripe& stripe, AuthorId user, UserState& state);

  ServiceOptions options_;
  std::uint64_t stripe_budget_bytes_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_REGISTRY_H_
