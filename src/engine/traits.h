#ifndef HIMPACT_ENGINE_TRAITS_H_
#define HIMPACT_ENGINE_TRAITS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/batch.h"
#include "common/bytes.h"
#include "common/status.h"
#include "hash/mix.h"
#include "stream/types.h"

/// \file
/// Ready-made `ShardSet` traits for the repo's three stream shapes.
///
/// Each traits type fixes the event type, the partition key, and how an
/// event is applied; the estimator stays a template parameter so any
/// mergeable estimator of the right interface can be sharded. Partition
/// keys are finalized with `SplitMix64` inside the shard set, so
/// correlated raw keys still spread across shards.
///
/// `ApplyBatch` is the devirtualized hot path (docs/PERFORMANCE.md): the
/// shard job hands a whole pending batch to the *concrete* estimator in
/// one statically dispatched call. When the estimator exposes a batch
/// method (`AddBatch` / `UpdateBatch` / `AddPaperBatch` — detected at
/// compile time with a `requires` expression), the batch goes straight to
/// it; otherwise the traits fall back to a tight scalar loop, which is
/// still virtual-call-free because `Estimator` is the concrete type.
///
/// Sharding caveat per stream shape:
///  - Aggregate streams partition by *value*, so any value-mergeable
///    estimator (ExponentialHistogramEstimator, KLL, HLL, ...) works.
///  - Cash-register streams partition by *paper id*: all updates to one
///    paper land on one shard, which per-paper estimators
///    (CashRegisterEstimator's samplers, CountMin) tolerate because their
///    merges are linear.
///  - Paper streams partition by *paper id*; HeavyHitters' merge demands
///    identical seeds across shards so author buckets and paper
///    priorities line up. Its merge is exact, so the merged grid is
///    byte-identical to an unsharded one under any partition.

namespace himpact {

/// Aggregate stream (Definition 1): each event is one paper's final
/// citation count. `Estimator` needs `Add(uint64_t)`, `Merge`,
/// `SerializeTo`, and static `DeserializeFrom`.
template <typename E>
struct AggregateEngineTraits {
  using Event = std::uint64_t;
  using Estimator = E;
  static std::uint64_t Key(const Event& value) { return value; }
  static void ApplyBatch(Estimator& estimator, const Event* events,
                         std::size_t n, BatchArena& arena) {
    (void)arena;
    if constexpr (requires {
                    estimator.AddBatch(std::span<const Event>(events, n));
                  }) {
      estimator.AddBatch(std::span<const Event>(events, n));
    } else {
      for (std::size_t i = 0; i < n; ++i) estimator.Add(events[i]);
    }
  }
  static void Merge(Estimator& into, const Estimator& from) {
    into.Merge(from);
  }
  static void Serialize(const Estimator& estimator, ByteWriter& writer) {
    estimator.SerializeTo(writer);
  }
  static StatusOr<Estimator> Deserialize(ByteReader& reader) {
    return Estimator::DeserializeFrom(reader);
  }
};

/// Cash-register stream (Definition 2): incremental citation updates.
/// Partitioned by paper id so each paper's counter lives on one shard.
/// `Estimator` needs `Update(uint64_t, int64_t)`, `Merge`, `SerializeTo`,
/// and static `DeserializeFrom`.
template <typename E>
struct CashRegisterEngineTraits {
  using Event = CitationEvent;
  using Estimator = E;
  static std::uint64_t Key(const Event& event) { return event.paper; }
  static void ApplyBatch(Estimator& estimator, const Event* events,
                         std::size_t n, BatchArena& arena) {
    if constexpr (requires {
                    estimator.UpdateBatch(std::span<const Event>(events, n),
                                          arena);
                  }) {
      estimator.UpdateBatch(std::span<const Event>(events, n), arena);
    } else {
      (void)arena;
      for (std::size_t i = 0; i < n; ++i) {
        estimator.Update(events[i].paper, events[i].delta);
      }
    }
  }
  static void Merge(Estimator& into, const Estimator& from) {
    into.Merge(from);
  }
  static void Serialize(const Estimator& estimator, ByteWriter& writer) {
    estimator.SerializeTo(writer);
  }
  static StatusOr<Estimator> Deserialize(ByteReader& reader) {
    return Estimator::DeserializeFrom(reader);
  }
};

/// Multi-author paper stream (Section 6): full paper tuples. Partitioned
/// by paper id. `Estimator` needs `AddPaper(const PaperTuple&)`, `Merge`,
/// `SerializeTo`, and static `DeserializeFrom`.
template <typename E>
struct PaperEngineTraits {
  using Event = PaperTuple;
  using Estimator = E;
  static std::uint64_t Key(const Event& event) { return event.paper; }
  static void ApplyBatch(Estimator& estimator, const Event* events,
                         std::size_t n, BatchArena& arena) {
    (void)arena;
    if constexpr (requires {
                    estimator.AddPaperBatch(std::span<const Event>(events, n));
                  }) {
      estimator.AddPaperBatch(std::span<const Event>(events, n));
    } else {
      for (std::size_t i = 0; i < n; ++i) estimator.AddPaper(events[i]);
    }
  }
  static void Merge(Estimator& into, const Estimator& from) {
    into.Merge(from);
  }
  static void Serialize(const Estimator& estimator, ByteWriter& writer) {
    estimator.SerializeTo(writer);
  }
  static StatusOr<Estimator> Deserialize(ByteReader& reader) {
    return Estimator::DeserializeFrom(reader);
  }
};

}  // namespace himpact

#endif  // HIMPACT_ENGINE_TRAITS_H_
