#ifndef HIMPACT_STORAGE_SEGMENT_STORE_H_
#define HIMPACT_STORAGE_SEGMENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/segment.h"

/// \file
/// Per-stripe out-of-core record store over sealed segment files.
///
/// One `SegmentStore` backs one registry stripe: demotions `Put` the
/// user's serialized state, reactivating adds `Get` it back (a paged
/// user's `get` answers its RAM floor and never reads the store).
/// Records accumulate in a RAM pending buffer until
/// `seal_threshold_bytes`, then seal into
/// `stripe-<i>-gen-<g>.seg` (atomic write, then mmap'd read-only). The
/// in-RAM index maps id -> the segment holding its newest copy; a `Get`
/// for a sealed record CRC-checks and decompresses its one small block
/// and slices the record out (no block cache: at `kSegmentBlockBytes` a
/// block holds ~14 records, so re-reading is cheaper than caching).
/// Reopening a directory rescans the generations, newest record wins —
/// so the cold tier survives restarts with no replay.
///
/// NOT thread-safe: the owning registry stripe calls every method under
/// its own stripe mutex, which is the store's required external lock.

namespace himpact {

/// Configuration for one stripe's store.
struct SegmentStoreOptions {
  /// Directory holding this store's segment files (shared across
  /// stripes; filenames carry the stripe index). Created if absent.
  std::string dir;
  /// The owning stripe's index (part of the filename and the segment
  /// header; `Open` only adopts matching files).
  std::uint64_t stripe = 0;
  /// Pending-buffer size that triggers a seal.
  std::size_t seal_threshold_bytes = 256u << 10;
  /// Raw block cut size inside sealed segments.
  std::size_t block_bytes = kSegmentBlockBytes;
};

/// Monotone per-store counters (runtime-only, surfaced via `health`).
struct SegmentStoreCounters {
  std::uint64_t appends = 0;
  std::uint64_t seals = 0;
  std::uint64_t page_ins = 0;    // block reads that went to a segment
  std::uint64_t cache_hits = 0;  // `Get`s served from the pending buffer
  std::uint64_t page_in_failures = 0;  // `Get`s that returned no record
  std::uint64_t flush_failures = 0;
  std::uint64_t corrupt_segments = 0;  // skipped while reopening a dir
};

/// `SegmentStore::Open` bound that adopts every generation on disk.
inline constexpr std::uint64_t kAllSegmentGenerations =
    std::numeric_limits<std::uint64_t>::max();

/// The store. Move via unique_ptr only (owns mmaps).
class SegmentStore {
 public:
  /// Creates `options.dir` if needed and adopts every existing sealed
  /// generation for this stripe below `generation_bound` (a damaged
  /// segment is skipped and counted, not fatal — its records degrade to
  /// floors). A restore passes the bound its checkpoint recorded, so
  /// generations sealed after that save are ignored and later seals
  /// overwrite them, starting at the bound.
  static StatusOr<std::unique_ptr<SegmentStore>> Open(
      const SegmentStoreOptions& options,
      std::uint64_t generation_bound = kAllSegmentGenerations);

  /// Buffers `record` for `id` (newest wins), sealing a segment when
  /// the pending buffer crosses the threshold. A failed seal counts in
  /// `flush_failures` and keeps the records pending (retried by the next
  /// Put/Flush), so a Put always succeeds once the record is buffered.
  void Put(std::uint64_t id, std::vector<std::uint8_t> record);

  /// The newest record for `id`: from the pending buffer, else paged in
  /// from its segment block. `kUnavailable` when the id was never put
  /// (or its segment was skipped as corrupt or is missing), `kInternal`
  /// on page-in failure (including an armed `segment-map-fail`),
  /// `kInvalidArgument` on a damaged block. Every failed `Get` counts
  /// once in `page_in_failures`; the caller degrades, never crashes.
  StatusOr<std::vector<std::uint8_t>> Get(std::uint64_t id);

  /// True iff `Get` would find a record.
  bool Contains(std::uint64_t id) const;

  /// Drops `id` from the pending buffer and the index (reactivation:
  /// the paged-in state lives in RAM again). On-disk bytes are
  /// reclaimed only by future generations superseding them.
  void Forget(std::uint64_t id);

  /// Seals the pending buffer (no-op when empty). Called by checkpoints
  /// so every segment-resident record a checkpoint references is
  /// durable.
  Status Flush();

  /// Records reachable through the index (sealed) plus pending ones.
  std::size_t num_records() const {
    return index_.size() + pending_.size();
  }
  std::size_t pending_records() const { return pending_.size(); }
  std::uint64_t segment_files() const { return segments_.size(); }
  /// The generation the next seal writes: one past every adopted one.
  std::uint64_t next_generation() const { return next_generation_; }
  std::uint64_t segment_bytes() const { return segment_bytes_; }

  /// Sealed record bytes no longer reachable through the index: a newer
  /// generation superseded the record (same id re-demoted after a
  /// page-in) or `Forget` dropped it. The space a compactor would
  /// reclaim; surfaced per-registry as `RegistryStats::
  /// segment_dead_bytes`. Payload bytes only — framing and block
  /// headers around dead records are not counted.
  std::uint64_t dead_record_bytes() const { return dead_record_bytes_; }

  const SegmentStoreCounters& counters() const { return counters_; }

 private:
  struct Loc {
    std::uint32_t segment = 0;  // index into segments_
    std::uint32_t len = 0;      // record bytes (dead-space accounting)
  };

  SegmentStore() = default;

  std::string SegmentPath(std::uint64_t generation) const;
  void AdoptSegment(SegmentReader reader);

  SegmentStoreOptions options_;
  std::uint64_t next_generation_ = 1;
  std::vector<SegmentReader> segments_;
  std::uint64_t segment_bytes_ = 0;
  std::unordered_map<std::uint64_t, Loc> index_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pending_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t dead_record_bytes_ = 0;
  SegmentStoreCounters counters_;
};

}  // namespace himpact

#endif  // HIMPACT_STORAGE_SEGMENT_STORE_H_
