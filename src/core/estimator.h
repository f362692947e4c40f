#ifndef HIMPACT_CORE_ESTIMATOR_H_
#define HIMPACT_CORE_ESTIMATOR_H_

#include <cstdint>

#include "common/space.h"

/// \file
/// Common interfaces for H-index estimators, so tests and the bench
/// harness can sweep algorithms generically.
///
/// Contracts every implementation honors (and the shard set in
/// `engine/shard_set.h` relies on):
///
/// * **Single-writer**: `Add`/`Update` are not thread-safe; an instance
///   is owned by exactly one thread at a time. Concurrency comes from
///   running one instance per shard and merging (see below), never from
///   sharing an instance.
/// * **Infallible hot path**: ingestion never fails and never throws;
///   all parameter validation happens in the `Create` factory.
/// * **Mergeability is per-type, not part of this interface.** Concrete
///   estimators that support sharding expose
///   `Merge(const T& other)` — requiring identical construction
///   parameters and seeds on both sides — plus
///   `SerializeTo(ByteWriter&)` / `static DeserializeFrom(ByteReader&)`
///   for checkpoints. The catalogue of which merges are exact, which
///   are `(1±ε)`-preserving, and which types cannot merge at all is in
///   `docs/ALGORITHMS.md` ("Mergeability").

namespace himpact {

/// An estimator consuming an aggregate stream: one response count per
/// publication, in arbitrary (or random) arrival order.
class AggregateHIndexEstimator {
 public:
  virtual ~AggregateHIndexEstimator() = default;

  /// Observes one publication's response count. Infallible; not
  /// thread-safe (single-writer contract, see file comment).
  virtual void Add(std::uint64_t value) = 0;

  /// Current H-index estimate (0 when nothing qualifies).
  virtual double Estimate() const = 0;

  /// Space used by the estimator state.
  virtual SpaceUsage EstimateSpace() const = 0;
};

/// An estimator consuming a cash-register stream of `(paper, +delta)`
/// response updates.
class CashRegisterHIndexEstimator {
 public:
  virtual ~CashRegisterHIndexEstimator() = default;

  /// Observes `delta` new responses for `paper`. Infallible; not
  /// thread-safe. All updates for one paper must reach the same
  /// instance — this is why the shard set partitions cash-register
  /// streams by paper id.
  virtual void Update(std::uint64_t paper, std::int64_t delta) = 0;

  /// Current H-index estimate (0 when nothing qualifies).
  virtual double Estimate() const = 0;

  /// Space used by the estimator state.
  virtual SpaceUsage EstimateSpace() const = 0;
};

}  // namespace himpact

#endif  // HIMPACT_CORE_ESTIMATOR_H_
