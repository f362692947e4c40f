#ifndef HIMPACT_COMMON_BATCH_H_
#define HIMPACT_COMMON_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Scratch memory for the batched ingest fast path (docs/PERFORMANCE.md).
///
/// Batch contract, shared by every `AddBatch` / `UpdateBatch` /
/// `AddPaperBatch` method in the codebase:
///
///  1. **Equivalence**: a batch call must leave the estimator in a state
///     byte-identical (per `SerializeTo`) to applying the same events with
///     the scalar method, in order. Batch methods may restructure loops
///     (hash-once, component-outer iteration) only where the underlying
///     state is order-invariant; order-dependent estimators (KLL's
///     compaction RNG, SpaceSaving's heap) keep strictly in-order loops.
///  2. **Zero allocation**: batch methods do not allocate per batch beyond
///     what the equivalent scalar sequence would (growing containers such
///     as KLL compactors still grow). Methods that need scratch arrays
///     take a caller-owned `BatchArena` and borrow from it.
///  3. **Single writer**: like the scalar hot path, batch methods are not
///     thread-safe; one writer per estimator (the shard set gives each
///     shard its own estimator and its own arena).

namespace himpact {

/// Caller-owned, reusable scratch memory for batch updates.
///
/// The arena hands out uninitialized `uint64_t` / `int64_t` arrays backed
/// by buffers that grow monotonically and are reused across batches, so a
/// steady-state ingest loop performs no allocations. Ownership rule: the
/// caller that drives the batch loop (engine worker, bench harness) owns
/// the arena and passes it down; estimators never allocate their own.
///
/// At most one `U64` and one `I64` borrow may be live at a time — a second
/// call to the same method invalidates the pointer returned by the first.
/// Every current batch method needs at most one array of each type.
class BatchArena {
 public:
  BatchArena() = default;

  // Movable (shards holding one are moved), not copyable.
  BatchArena(const BatchArena&) = delete;
  BatchArena& operator=(const BatchArena&) = delete;
  BatchArena(BatchArena&&) = default;
  BatchArena& operator=(BatchArena&&) = default;

  /// Borrows `n` uninitialized uint64 slots valid until the next `U64`
  /// call (or destruction). Capacity is retained across batches.
  std::uint64_t* U64(std::size_t n) {
    if (u64_.size() < n) u64_.resize(n);
    return u64_.data();
  }

  /// Borrows `n` uninitialized int64 slots valid until the next `I64`
  /// call (or destruction).
  std::int64_t* I64(std::size_t n) {
    if (i64_.size() < n) i64_.resize(n);
    return i64_.data();
  }

  /// Bytes currently held (for stats surfaces).
  std::size_t CapacityBytes() const {
    return u64_.capacity() * sizeof(std::uint64_t) +
           i64_.capacity() * sizeof(std::int64_t);
  }

 private:
  std::vector<std::uint64_t> u64_;
  std::vector<std::int64_t> i64_;
};

}  // namespace himpact

#endif  // HIMPACT_COMMON_BATCH_H_
