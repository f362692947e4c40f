#ifndef HIMPACT_ENGINE_SHARD_SET_H_
#define HIMPACT_ENGINE_SHARD_SET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/bytes.h"
#include "common/status.h"
#include "engine/task_runtime.h"
#include "fault/backoff.h"
#include "hash/mix.h"
#include "io/checkpoint.h"

/// \file
/// Fork-join sharded ingestion.
///
/// `ShardSet<Traits>` hash-partitions a stream of events across N
/// estimator instances built by one factory (identical parameters and
/// seed, so the shards stay mergeable; docs/ALGORITHMS.md,
/// "Mergeability"). `Add` routes each event by
/// `SplitMix64(Traits::Key(e)) % N` into that shard's pending batch, and
/// a full batch goes to `Traits::ApplyBatch` as a job on
/// `TaskRuntime::Shared()`. Each shard has at most one job in flight, so
/// the caller keeps filling batches while the shards apply theirs; a
/// shard whose job is still running lets its next batch grow instead of
/// stalling the caller, and catches up with one larger (cheaper per
/// event) batch. `Flush` applies everything and waits for every job.
/// Queries merge the shards in index order.
///
/// Threading model: one caller thread owns the set. Each shard's
/// estimator and in-flight batch are touched only by that shard's job;
/// the caller waits on the job's handle before touching either. Batch
/// boundaries never change a result: every `ApplyBatch` is
/// byte-identical to applying its events one by one
/// (tests/batch_equivalence_test.cc).
///
/// Checkpoint layout (docs/CHECKPOINTS.md): one manifest envelope at
/// `<path>` plus one framed envelope per shard at `<path>.shard-<i>`,
/// each written atomically and retried with jittered backoff on
/// transient I/O failure (fault/backoff.h). The manifest is written last
/// and is the commit point.

namespace himpact {

/// What a shard-set checkpoint's manifest records.
struct EngineManifest {
  std::uint64_t num_shards = 0;
  std::uint64_t total_events = 0;
};

/// A `Traits` type adapts one estimator family to the shard set (ready
/// made ones for the repo's estimators live in engine/traits.h):
///
/// ```
/// struct MyTraits {
///   using Event = ...;       // copyable stream element
///   using Estimator = ...;   // copyable, mergeable estimator
///   static std::uint64_t Key(const Event&);          // partition key
///   static void ApplyBatch(Estimator&, const Event*, std::size_t,
///                          BatchArena&);             // ingest a batch
///   static void Merge(Estimator&, const Estimator&); // into <- from
///   // Only needed when CheckpointTo/RestoreFrom are used:
///   static void Serialize(const Estimator&, ByteWriter&);
///   static StatusOr<Estimator> Deserialize(ByteReader&);
/// };
/// ```
template <typename Traits>
class ShardSet {
 public:
  using Event = typename Traits::Event;
  using Estimator = typename Traits::Estimator;

  /// Builds a set whose shard `i` runs `factory(i)`.
  template <typename Factory>
  static StatusOr<ShardSet> Create(std::size_t num_shards,
                                   std::size_t batch_size, Factory&& factory) {
    if (num_shards < 1) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (batch_size < 1) {
      return Status::InvalidArgument("batch_size must be >= 1");
    }
    ShardSet set;
    set.batch_size_ = batch_size;
    set.shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      set.shards_.push_back(Shard{factory(i), {}, {}, {}, {}, 0});
    }
    return StatusOr<ShardSet>(std::move(set));
  }

  ShardSet(ShardSet&&) = default;
  ShardSet& operator=(ShardSet&&) = delete;
  ~ShardSet() {
    for (Shard& shard : shards_) shard.job.Wait();
  }

  /// Routes one event to its shard's pending batch. Each time the batch
  /// grows by `batch_size` events it goes to a job if the shard's
  /// previous job is done; otherwise it keeps growing, and at
  /// `kMaxBatches * batch_size` events `Add` waits for that job.
  void Add(const Event& event) {
    Shard& shard = shards_[ShardOf(Traits::Key(event))];
    shard.pending.push_back(event);
    ++shard.pushed;
    const std::size_t n = shard.pending.size();
    if (n % batch_size_ != 0) return;
    if (n >= kMaxBatches * batch_size_ || shard.job.done()) Dispatch(shard);
  }

  /// Applies every pending batch and returns once all jobs are done.
  void Flush() {
    for (Shard& shard : shards_) {
      if (!shard.pending.empty()) Dispatch(shard);
    }
    for (Shard& shard : shards_) shard.job.Wait();
  }

  std::size_t num_shards() const { return shards_.size(); }

  /// Events routed to shard `i` (applied or still pending).
  std::uint64_t pushed(std::size_t i) const { return shards_[i].pushed; }

  /// Events routed across all shards.
  std::uint64_t total_events() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) total += shard.pushed;
    return total;
  }

  /// The merge of shards 0..N-1, in index order, after a flush.
  Estimator Merged() {
    Flush();
    Estimator merged = shards_[0].estimator;
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      Traits::Merge(merged, shards_[i].estimator);
    }
    return merged;
  }

  /// Flushes, then writes one envelope per shard and the manifest.
  Status CheckpointTo(const std::string& path) {
    Flush();
    const RetryOptions retry;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ByteWriter writer;
      writer.U64(kShardMagic);
      writer.U64(static_cast<std::uint64_t>(i));
      writer.U64(static_cast<std::uint64_t>(shards_.size()));
      writer.U64(shards_[i].pushed);
      Traits::Serialize(shards_[i].estimator, writer);
      const Status status = RetryWithBackoff(retry, [&] {
        return WriteCheckpointFile(ShardPath(path, i),
                                   CheckpointTag::kEngineShard,
                                   writer.buffer());
      });
      if (!status.ok()) return status;
    }
    ByteWriter manifest;
    manifest.U64(kManifestMagic);
    manifest.U64(static_cast<std::uint64_t>(shards_.size()));
    manifest.U64(total_events());
    return RetryWithBackoff(retry, [&] {
      return WriteCheckpointFile(path, CheckpointTag::kEngineManifest,
                                 manifest.buffer());
    });
  }

  /// Reads just the manifest, so a caller can learn the shard count
  /// before building a matching set. `kUnavailable` when none exists.
  static StatusOr<EngineManifest> ReadManifest(const std::string& path) {
    StatusOr<std::vector<std::uint8_t>> payload =
        ReadCheckpointFile(path, CheckpointTag::kEngineManifest);
    if (!payload.ok()) return payload.status();
    ByteReader reader(payload.value());
    std::uint64_t magic = 0;
    EngineManifest out;
    if (!reader.U64(&magic) || magic != kManifestMagic ||
        !reader.U64(&out.num_shards) || !reader.U64(&out.total_events) ||
        !reader.AtEnd()) {
      return Status::InvalidArgument("corrupt engine manifest");
    }
    return out;
  }

  /// Replaces every shard's estimator and pushed count with a
  /// `CheckpointTo` checkpoint's. The shard count must match the
  /// manifest's; nothing changes unless every envelope decodes.
  Status RestoreFrom(const std::string& path) {
    Flush();
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
      if (!reader.U64(&magic) || magic != kShardMagic ||
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
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i].estimator = std::move(restored[i]);
      shards_[i].pushed = restored_events[i];
    }
    return Status::OK();
  }

  /// The per-shard envelope path used by `CheckpointTo`.
  static std::string ShardPath(const std::string& path, std::size_t shard) {
    return path + ".shard-" + std::to_string(shard);
  }

 private:
  struct Shard {
    Estimator estimator;
    std::vector<Event> pending;   // filled by the caller
    std::vector<Event> applying;  // owned by `job` while it runs
    BatchArena arena;
    TaskHandle job;
    std::uint64_t pushed = 0;
  };

  // Pending batches a shard may fall behind by before `Add` blocks.
  static constexpr std::size_t kMaxBatches = 16;

  inline static constexpr std::uint64_t kManifestMagic =
      0x48494d50454e4731ULL;  // "HIMPENG1"
  inline static constexpr std::uint64_t kShardMagic =
      0x48494d5053484431ULL;  // "HIMPSHD1"

  ShardSet() = default;

  /// Waits for the shard's previous job, then hands its pending batch to
  /// a new one. Does not wait for the new job.
  static void Dispatch(Shard& shard) {
    shard.job.Wait();
    std::swap(shard.pending, shard.applying);
    shard.job = TaskRuntime::Shared().Submit([&shard] {
      Traits::ApplyBatch(shard.estimator, shard.applying.data(),
                         shard.applying.size(), shard.arena);
      shard.applying.clear();
    });
  }

  std::size_t ShardOf(std::uint64_t key) const {
    if (shards_.size() == 1) return 0;
    return static_cast<std::size_t>(SplitMix64(key) % shards_.size());
  }

  std::vector<Shard> shards_;
  std::size_t batch_size_ = 0;
};

}  // namespace himpact

#endif  // HIMPACT_ENGINE_SHARD_SET_H_
