#ifndef HIMPACT_ENGINE_SHARDED_ENGINE_H_
#define HIMPACT_ENGINE_SHARDED_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/envelope.h"
#include "common/status.h"
#include "engine/spsc_ring.h"
#include "engine/stats.h"
#include "fault/backoff.h"
#include "fault/fault.h"
#include "fault/health.h"
#include "hash/mix.h"
#include "io/checkpoint.h"

/// \file
/// Parallel sharded ingestion engine.
///
/// `ShardedEngine<Traits>` hash-partitions a stream of events across N
/// worker shards. Each shard owns a private estimator instance (built by
/// a caller-supplied factory so every shard gets identical parameters and
/// seed), fed through a bounded SPSC ring buffer with batched dequeue.
/// Queries are answered by merging the shard estimators — which is why
/// only mergeable estimators can be sharded (see docs/ALGORITHMS.md,
/// "Mergeability").
///
/// Hot path (docs/PERFORMANCE.md): workers drain the ring in batches and
/// hand each whole batch to the concrete estimator through
/// `Traits::ApplyBatch` — static dispatch, no per-event virtual call —
/// with a worker-owned `BatchArena` for scratch. Merge-on-query is
/// epoch-cached: each shard's `consumed` counter is its version, and
/// `MergedEstimatorCached()` reuses the last merged snapshot while no
/// version advanced.
///
/// Threading model: exactly one producer thread calls `Ingest`; each
/// shard has one worker thread applying events. `Drain()` is a barrier
/// (every pushed event applied) after which the producer may read shard
/// estimators, take a merged snapshot, or checkpoint, and then resume
/// ingesting. All waiting is yield-based so the engine degrades
/// gracefully when shards outnumber cores.
///
/// Checkpoint layout (crash-safe, PR 1 conventions): one manifest
/// envelope at `<path>` plus N per-shard framed envelopes at
/// `<path>.shard-<i>`, each written atomically — and, since the runtime
/// fault-tolerance layer, each retried with jittered backoff on
/// transient I/O failure (fault/backoff.h).
///
/// Fault tolerance (docs/ROBUSTNESS.md): each shard carries a
/// `HealthTracker` polled by the producer (`PollHealth`), `TryIngest`
/// offers an event without blocking so callers can shed at a full ring,
/// and `MergedEstimatorDegraded` answers queries within a deadline by
/// merging only the shards that caught up — a monotone lower bound on
/// the full answer, tagged with how much was skipped.

namespace himpact {

/// Engine geometry. `num_shards` workers, each behind a ring of
/// `queue_capacity` events (rounded up to a power of two), dequeued in
/// batches of up to `batch_size`.
///
/// The producer-wait knobs bound how long `Ingest` busy-waits at a full
/// ring before sleeping (`producer_sleep_micros` per nap), and `health`
/// configures the per-shard watchdog (fault/health.h). Checkpoint writes
/// retry transient failures per `checkpoint_retry`.
struct EngineOptions {
  std::size_t num_shards = 2;
  std::size_t queue_capacity = 4096;
  std::size_t batch_size = 256;
  std::size_t producer_spin_limit = 64;
  std::size_t producer_yield_limit = 64;
  std::uint64_t producer_sleep_micros = 50;
  HealthOptions health;
  RetryOptions checkpoint_retry;
};

/// Result of a degraded (deadline-bounded) merge-on-query: the merge of
/// every shard that caught up within the deadline. Because each shard
/// estimator summarizes a disjoint sub-stream and H-impact estimates are
/// monotone in the stream, the partial merge is a valid lower bound on
/// the full answer; `skipped_events` bounds how much of the stream the
/// answer has not seen. `estimator` is empty only when no shard caught
/// up at all.
template <typename Estimator>
struct DegradedSnapshot {
  std::optional<Estimator> estimator;
  std::size_t shards_merged = 0;
  std::size_t shards_skipped = 0;
  std::uint64_t skipped_events = 0;
};

/// What an engine checkpoint's manifest records.
struct EngineManifest {
  std::uint64_t num_shards = 0;
  std::uint64_t total_events = 0;
};

/// A `Traits` type adapts one estimator family to the engine:
///
/// ```
/// struct MyTraits {
///   using Event = ...;       // copyable stream element
///   using Estimator = ...;   // copyable, mergeable estimator
///   static std::uint64_t Key(const Event&);          // partition key
///   static void Apply(Estimator&, const Event&);     // ingest one event
///   static void Merge(Estimator&, const Estimator&); // into <- from
///   // Only needed when CheckpointTo/RestoreFrom are used:
///   static void Serialize(const Estimator&, ByteWriter&);
///   static StatusOr<Estimator> Deserialize(ByteReader&);
/// };
/// ```
///
/// Ready-made traits for the repo's estimators live in engine/traits.h.
template <typename Traits>
class ShardedEngine {
 public:
  using Event = typename Traits::Event;
  using Estimator = typename Traits::Estimator;

  /// Builds an engine whose shard `i` runs `factory(i)`. The factory must
  /// hand every shard identical parameters and seed, or later merges will
  /// die on a compatibility check. Workers are not started yet; call
  /// `Start()`.
  template <typename Factory>
  static StatusOr<ShardedEngine> Create(const EngineOptions& options,
                                        Factory&& factory) {
    if (options.num_shards < 1) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (options.batch_size < 1) {
      return Status::InvalidArgument("batch_size must be >= 1");
    }
    if (options.queue_capacity < options.batch_size) {
      return Status::InvalidArgument("queue_capacity must be >= batch_size");
    }
    ShardedEngine engine(options);
    engine.shards_.reserve(options.num_shards);
    for (std::size_t i = 0; i < options.num_shards; ++i) {
      engine.shards_.push_back(std::make_unique<Shard>(
          options.queue_capacity, options.health, factory(i)));
    }
    return StatusOr<ShardedEngine>(std::move(engine));
  }

  ShardedEngine(ShardedEngine&& other) noexcept
      : options_(other.options_),
        shards_(std::move(other.shards_)),
        workers_(std::move(other.workers_)),
        stop_(std::move(other.stop_)),
        started_(other.started_),
        last_merge_seconds_(other.last_merge_seconds_),
        merge_cache_(std::move(other.merge_cache_)),
        merge_cache_versions_(std::move(other.merge_cache_versions_)),
        merge_cache_hits_(other.merge_cache_hits_),
        merge_cache_misses_(other.merge_cache_misses_),
        last_merge_cache_hit_(other.last_merge_cache_hit_) {
    other.started_ = false;
    // The moved-from engine keeps its shards_ empty; make its cache
    // unable to answer for shards it no longer owns.
    other.InvalidateMergeCache();
  }

  ShardedEngine& operator=(ShardedEngine&& other) noexcept {
    if (this != &other) {
      if (started_) Finish();
      options_ = other.options_;
      shards_ = std::move(other.shards_);
      workers_ = std::move(other.workers_);
      stop_ = std::move(other.stop_);
      started_ = other.started_;
      last_merge_seconds_ = other.last_merge_seconds_;
      merge_cache_ = std::move(other.merge_cache_);
      merge_cache_versions_ = std::move(other.merge_cache_versions_);
      merge_cache_hits_ = other.merge_cache_hits_;
      merge_cache_misses_ = other.merge_cache_misses_;
      last_merge_cache_hit_ = other.last_merge_cache_hit_;
      other.started_ = false;
      other.InvalidateMergeCache();
    }
    return *this;
  }

  ~ShardedEngine() {
    if (started_) Finish();
  }

  /// Spawns one worker thread per shard. Idempotent. The engine may be
  /// moved while running: workers reference only heap state.
  void Start() {
    if (started_) return;
    stop_->store(false, std::memory_order_release);
    workers_.reserve(shards_.size());
    for (auto& shard : shards_) {
      workers_.emplace_back(
          [raw = shard.get(), stop = stop_.get(),
           batch_size = options_.batch_size] {
            WorkerLoop(*raw, *stop, batch_size);
          });
    }
    started_ = true;
  }

  /// Enqueues one event on its key's shard, escalating from bounded
  /// spins to bounded yields to short sleeps while that shard's ring is
  /// full (each full encounter counts one stall; each exhausted bounded
  /// wait counts a producer stall in the ring). Blocking by contract —
  /// it does not return until the event is enqueued — but never burns a
  /// core unboundedly. Producer thread only; requires `Start()` to have
  /// been called. Callers that must not block use `TryIngest`.
  void Ingest(const Event& event) {
    Shard& shard = *shards_[ShardOf(Traits::Key(event))];
    if (!shard.ring.PushBounded(event, options_.producer_spin_limit,
                                options_.producer_yield_limit)) {
      shard.stats.queue_full_stalls.fetch_add(1, std::memory_order_relaxed);
      do {
        SleepForMicros(options_.producer_sleep_micros);
      } while (!shard.ring.PushBounded(event, options_.producer_spin_limit,
                                       options_.producer_yield_limit));
    }
    shard.stats.pushed.fetch_add(1, std::memory_order_release);
  }

  /// Non-blocking offer: spins briefly at a full ring but never yields
  /// or sleeps. Returns false (counting a rejected offer — the event was
  /// NOT enqueued) so the caller can shed load explicitly. Producer
  /// thread only.
  bool TryIngest(const Event& event) {
    Shard& shard = *shards_[ShardOf(Traits::Key(event))];
    if (!shard.ring.PushBounded(event, options_.producer_spin_limit, 0)) {
      shard.stats.offers_rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    shard.stats.pushed.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// Blocks until every pushed event has been applied to its shard's
  /// estimator. Producer thread only. After `Drain()` returns (and until
  /// the next `Ingest`), shard estimators are stable and safe to read
  /// from the producer thread.
  void Drain() {
    for (auto& shard : shards_) {
      const std::uint64_t pushed =
          shard->stats.pushed.load(std::memory_order_relaxed);
      while (shard->stats.consumed.load(std::memory_order_acquire) < pushed) {
        std::this_thread::yield();
      }
    }
  }

  /// Advances every shard's health state machine from its current
  /// counters. Producer (or any single watchdog) thread only; the
  /// resulting states are published for any thread to read via
  /// `shard_health`.
  void PollHealth() {
    const std::uint64_t now = FaultClock::NowNanos();
    for (auto& shard : shards_) {
      const std::uint64_t pushed =
          shard->stats.pushed.load(std::memory_order_acquire);
      const std::uint64_t consumed =
          shard->stats.consumed.load(std::memory_order_acquire);
      const ShardHealth state = shard->health.Poll(pushed, consumed, now);
      shard->published_health.store(static_cast<int>(state),
                                    std::memory_order_release);
    }
  }

  /// Shard `i`'s health as of the last `PollHealth()` call (healthy
  /// before the first poll). Safe from any thread.
  ShardHealth shard_health(std::size_t i) const {
    return static_cast<ShardHealth>(
        shards_[i]->published_health.load(std::memory_order_acquire));
  }

  /// Deadline-bounded merge-on-query: waits up to `timeout_nanos` total
  /// for shards to catch up, merging each shard that did and skipping —
  /// entirely — each shard that did not (a lagging worker may still be
  /// mutating its estimator, so a partial shard cannot be read safely).
  /// The result is a monotone lower bound on `MergedEstimator()`s
  /// answer, tagged with the skipped backlog as a staleness bound.
  /// Producer thread only, engine running or quiescent.
  DegradedSnapshot<Estimator> MergedEstimatorDegraded(
      std::uint64_t timeout_nanos) {
    const std::uint64_t deadline = FaultClock::NowNanos() + timeout_nanos;
    DegradedSnapshot<Estimator> snapshot;
    for (auto& shard : shards_) {
      const std::uint64_t pushed =
          shard->stats.pushed.load(std::memory_order_relaxed);
      bool caught_up = true;
      std::uint64_t consumed =
          shard->stats.consumed.load(std::memory_order_acquire);
      while (consumed < pushed) {
        if (FaultClock::NowNanos() >= deadline) {
          caught_up = false;
          break;
        }
        std::this_thread::yield();
        consumed = shard->stats.consumed.load(std::memory_order_acquire);
      }
      if (!caught_up) {
        ++snapshot.shards_skipped;
        snapshot.skipped_events += pushed - consumed;
        continue;
      }
      // The consumed acquire-load above synchronizes with the worker's
      // release after its last apply, so this estimator read is stable.
      if (!snapshot.estimator.has_value()) {
        snapshot.estimator = shard->estimator;
      } else {
        Traits::Merge(*snapshot.estimator, shard->estimator);
      }
      ++snapshot.shards_merged;
    }
    return snapshot;
  }

  /// Drains, stops, and joins all workers. Idempotent; the engine can be
  /// restarted with `Start()` afterwards.
  void Finish() {
    if (!started_) return;
    Drain();
    stop_->store(true, std::memory_order_release);
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    started_ = false;
  }

  /// Number of shards.
  std::size_t num_shards() const { return shards_.size(); }

  /// Engine geometry.
  const EngineOptions& options() const { return options_; }

  /// Shard `i`'s estimator. Requires quiescence (after `Drain()` or
  /// `Finish()`, before the next `Ingest`).
  const Estimator& shard_estimator(std::size_t i) const {
    return shards_[i]->estimator;
  }

  /// Merged view of all shards, epoch-cached: each shard's `consumed`
  /// counter doubles as its version, and the cached merge is reused while
  /// every version still matches — repeated queries on a quiescent engine
  /// cost one version sweep instead of a full re-merge. Any advanced
  /// shard triggers a full re-merge (merges are additive, not
  /// subtractive, so partial refresh is not possible).
  ///
  /// Returns a reference into the engine; valid until the next
  /// cache-invalidating call (`MergedEstimator*`, `RestoreFrom`, move).
  /// Requires quiescence, producer thread only — same contract as
  /// `MergedEstimator()`. Records the (hit or miss) latency in
  /// `last_merge_seconds()` and counts the outcome in
  /// `merge_cache_hits()` / `merge_cache_misses()`.
  const Estimator& MergedEstimatorCached() const {
    const auto start = std::chrono::steady_clock::now();
    bool hit = merge_cache_.has_value() &&
               merge_cache_versions_.size() == shards_.size();
    if (hit) {
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (merge_cache_versions_[i] !=
            shards_[i]->stats.consumed.load(std::memory_order_acquire)) {
          hit = false;
          break;
        }
      }
    }
    if (!hit) {
      // Record the version vector BEFORE reading the estimators: under
      // the required quiescence both are stable, and if the contract is
      // ever violated the cache tags a state at least as old as what it
      // stores — a later query re-merges instead of serving stale data.
      merge_cache_versions_.resize(shards_.size());
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        merge_cache_versions_[i] =
            shards_[i]->stats.consumed.load(std::memory_order_acquire);
      }
      Estimator merged = shards_[0]->estimator;
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        Traits::Merge(merged, shards_[i]->estimator);
      }
      merge_cache_ = std::move(merged);
      ++merge_cache_misses_;
    } else {
      ++merge_cache_hits_;
    }
    last_merge_cache_hit_ = hit;
    last_merge_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return *merge_cache_;
  }

  /// Merged view of all shards, by value (the pre-cache API; callers that
  /// can hold a reference should prefer `MergedEstimatorCached()`). Same
  /// contract; serves the copy from the epoch cache.
  Estimator MergedEstimator() const { return MergedEstimatorCached(); }

  /// Drops the cached merge; the next `MergedEstimator*` call re-merges.
  /// Called internally by `RestoreFrom` (restored `consumed` counters
  /// could coincidentally equal the cached versions); public for tests
  /// and benches that need a guaranteed cold merge.
  void InvalidateMergeCache() const {
    merge_cache_.reset();
    merge_cache_versions_.clear();
  }

  /// Cache outcomes of `MergedEstimator*` calls since construction.
  std::uint64_t merge_cache_hits() const { return merge_cache_hits_; }
  std::uint64_t merge_cache_misses() const { return merge_cache_misses_; }

  /// Whether the most recent `MergedEstimator*` call was a cache hit.
  bool last_merge_cache_hit() const { return last_merge_cache_hit_; }

  /// Wall-clock seconds the most recent `MergedEstimator*` call spent
  /// (version sweep only on a hit; full merge on a miss; 0 before the
  /// first call).
  double last_merge_seconds() const { return last_merge_seconds_; }

  /// Snapshot of shard `i`'s counters. Safe from any thread.
  ShardCounters shard_counters(std::size_t i) const {
    ShardCounters counters = shards_[i]->stats.Snapshot();
    counters.producer_stalls = shards_[i]->ring.producer_stalls();
    return counters;
  }

  /// Total events pushed across shards. Producer thread only.
  std::uint64_t total_events() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->stats.pushed.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Checkpoints the engine as a manifest at `path` plus one framed
  /// envelope per shard at `path.shard-<i>`, each written atomically and
  /// retried with jittered backoff on transient I/O failure. Requires
  /// quiescence.
  Status CheckpointTo(const std::string& path) const {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ByteWriter writer;
      writer.U64(kEngineShardMagic);
      writer.U64(static_cast<std::uint64_t>(i));
      writer.U64(static_cast<std::uint64_t>(shards_.size()));
      writer.U64(shards_[i]->stats.pushed.load(std::memory_order_relaxed));
      Traits::Serialize(shards_[i]->estimator, writer);
      const Status status = RetryWithBackoff(options_.checkpoint_retry, [&] {
        return WriteCheckpointFile(ShardPath(path, i),
                                   CheckpointTag::kEngineShard,
                                   writer.buffer());
      });
      if (!status.ok()) return status;
    }
    // The manifest is written last: it is the commit point.
    ByteWriter manifest;
    manifest.U64(kEngineManifestMagic);
    manifest.U64(static_cast<std::uint64_t>(shards_.size()));
    manifest.U64(total_events());
    return RetryWithBackoff(options_.checkpoint_retry, [&] {
      return WriteCheckpointFile(path, CheckpointTag::kEngineManifest,
                                 manifest.buffer());
    });
  }

  /// Reads just the manifest of an engine checkpoint, so callers can
  /// learn the shard count before constructing a matching engine.
  /// `kUnavailable` when no checkpoint exists.
  static StatusOr<EngineManifest> ReadManifest(const std::string& path) {
    StatusOr<std::vector<std::uint8_t>> payload =
        ReadCheckpointFile(path, CheckpointTag::kEngineManifest);
    if (!payload.ok()) return payload.status();
    ByteReader reader(payload.value());
    std::uint64_t magic = 0;
    EngineManifest out;
    if (!reader.U64(&magic) || magic != kEngineManifestMagic ||
        !reader.U64(&out.num_shards) || !reader.U64(&out.total_events) ||
        !reader.AtEnd()) {
      return Status::InvalidArgument("corrupt engine manifest");
    }
    return out;
  }

  /// Restores shard estimators (and counters) from a `CheckpointTo`
  /// checkpoint. The engine must not be running, and its shard count must
  /// match the manifest's (use `ReadManifest` to size the engine first).
  Status RestoreFrom(const std::string& path) {
    HIMPACT_CHECK_MSG(!started_, "RestoreFrom requires a stopped engine");
    StatusOr<EngineManifest> manifest = ReadManifest(path);
    if (!manifest.ok()) return manifest.status();
    if (manifest.value().num_shards != shards_.size()) {
      return Status::InvalidArgument(
          "engine checkpoint shard count does not match this engine");
    }
    std::vector<Estimator> restored;
    std::vector<std::uint64_t> restored_events;
    restored.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      StatusOr<std::vector<std::uint8_t>> payload =
          ReadCheckpointFile(ShardPath(path, i), CheckpointTag::kEngineShard);
      if (!payload.ok()) return payload.status();
      ByteReader reader(payload.value());
      std::uint64_t magic = 0;
      std::uint64_t shard_index = 0;
      std::uint64_t num_shards = 0;
      std::uint64_t events = 0;
      if (!reader.U64(&magic) || magic != kEngineShardMagic ||
          !reader.U64(&shard_index) || shard_index != i ||
          !reader.U64(&num_shards) || num_shards != shards_.size() ||
          !reader.U64(&events)) {
        return Status::InvalidArgument("corrupt engine shard checkpoint");
      }
      StatusOr<Estimator> estimator = Traits::Deserialize(reader);
      if (!estimator.ok()) return estimator.status();
      if (!reader.AtEnd()) {
        return Status::InvalidArgument(
            "engine shard checkpoint has trailing bytes");
      }
      restored.push_back(std::move(estimator).value());
      restored_events.push_back(events);
    }
    // All pieces decoded: only now mutate the engine.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->estimator = std::move(restored[i]);
      shards_[i]->stats.pushed.store(restored_events[i],
                                     std::memory_order_relaxed);
      shards_[i]->stats.consumed.store(restored_events[i],
                                       std::memory_order_relaxed);
    }
    // The restored `consumed` counters could coincidentally equal the
    // cached version vector while the estimators changed; never let the
    // cache answer for a different history.
    InvalidateMergeCache();
    return Status::OK();
  }

  /// The per-shard envelope path used by `CheckpointTo`.
  static std::string ShardPath(const std::string& path, std::size_t shard) {
    return path + ".shard-" + std::to_string(shard);
  }

 private:
  struct Shard {
    Shard(std::size_t queue_capacity, const HealthOptions& health_options,
          Estimator est)
        : ring(queue_capacity),
          health(health_options),
          estimator(std::move(est)) {}
    SpscRing<Event> ring;
    ShardStats stats;
    HealthTracker health;
    // Last `PollHealth` verdict, published for cross-thread reads.
    std::atomic<int> published_health{static_cast<int>(ShardHealth::kHealthy)};
    Estimator estimator;
  };

  inline static constexpr std::uint64_t kEngineManifestMagic =
      0x48494d50454e4731ULL;  // "HIMPENG1"
  inline static constexpr std::uint64_t kEngineShardMagic =
      0x48494d5053484431ULL;  // "HIMPSHD1"

  explicit ShardedEngine(const EngineOptions& options) : options_(options) {}

  /// Routes one key: the static `SplitMix64(key) % num_shards`.
  std::size_t ShardOf(std::uint64_t key) const {
    if (shards_.size() == 1) return 0;
    return static_cast<std::size_t>(SplitMix64(key) % shards_.size());
  }

  static void WorkerLoop(Shard& shard, const std::atomic<bool>& stop,
                         std::size_t batch_size) {
    std::vector<Event> batch(batch_size);
    BatchArena arena;  // worker-owned scratch, reused for every batch
    while (true) {
      // Fault hook: a firing `worker-stall` freezes this worker for the
      // armed parameter (microseconds), simulating a wedged shard so the
      // health watchdog and degraded queries can be exercised.
      if (FaultRegistry::Global().AnyArmed() &&
          FaultRegistry::Global().ShouldFire(FaultPoint::kWorkerStall)) {
        SleepForMicros(
            FaultRegistry::Global().param(FaultPoint::kWorkerStall));
      }
      const std::size_t n = shard.ring.PopBatch(batch.data(), batch.size());
      if (n == 0) {
        // `stop` is set only after the producer stops pushing (Finish
        // drains first), so an empty ring after seeing the flag is final.
        if (stop.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
        continue;
      }
      // The whole batch goes to the concrete estimator in one statically
      // dispatched call (engine/traits.h). The two clock reads cost ~40ns
      // per batch — noise next to applying hundreds of events — and buy
      // an exact ns/event figure for the stats surface.
      const auto apply_start = std::chrono::steady_clock::now();
      Traits::ApplyBatch(shard.estimator, batch.data(), n, arena);
      const auto apply_nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - apply_start)
              .count();
      shard.stats.apply_nanos.fetch_add(
          static_cast<std::uint64_t>(apply_nanos), std::memory_order_relaxed);
      // Single writer: a plain load+store max is race-free here.
      if (n > shard.stats.max_batch.load(std::memory_order_relaxed)) {
        shard.stats.max_batch.store(n, std::memory_order_relaxed);
      }
      shard.stats.consumed.fetch_add(n, std::memory_order_release);
      shard.stats.batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::unique_ptr<std::atomic<bool>> stop_ =
      std::make_unique<std::atomic<bool>>(false);
  bool started_ = false;

  mutable double last_merge_seconds_ = 0.0;

  // Epoch-cached merge-on-query (producer-thread state, guarded by the
  // same quiescence contract as the shard estimators themselves): the
  // merged snapshot plus the per-shard `consumed` versions it reflects.
  mutable std::optional<Estimator> merge_cache_;
  mutable std::vector<std::uint64_t> merge_cache_versions_;
  mutable std::uint64_t merge_cache_hits_ = 0;
  mutable std::uint64_t merge_cache_misses_ = 0;
  mutable bool last_merge_cache_hit_ = false;
};

}  // namespace himpact

#endif  // HIMPACT_ENGINE_SHARDED_ENGINE_H_
