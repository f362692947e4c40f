#ifndef HIMPACT_SKETCH_BOTTOM_SAMPLE_H_
#define HIMPACT_SKETCH_BOTTOM_SAMPLE_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/space.h"

/// \file
/// Bottom-s sampling, Algorithm 7's per-threshold sample `T_i`: keep the
/// `s` smallest entries offered. When an entry's order starts with a
/// seeded hash of its item (a *priority*), they are a uniform s-subset of
/// the distinct items (Patrascu–Thorup, "The Power of Simple Tabulation
/// Hashing", JACM 2012). No coin is drawn: the sample is a pure function
/// of the *set* of entries offered, whatever their order, repetitions or
/// sharding. The capacity `s` is passed to every call, so a detector's
/// levels store it once. KMV's bottom-k (`sketch/distinct.h`) keeps bare
/// hashes and stays separate.
///
/// Entries either order themselves (`operator<=>`, the `Offer` and
/// `Merge(other, capacity)` shorthands) or are ordered by the caller, as
/// Algorithm 7's references into a paper table are: `Place` and `Insert`
/// split an offer so the caller makes the entry only once it is taken,
/// and the general `Merge` reports what it keeps and drops.

namespace himpact {

/// The `s` smallest distinct entries offered, sorted ascending.
template <typename Entry>
class BottomSample {
 public:
  BottomSample() = default;

  /// Adopts `entries`, which the caller has checked are strictly
  /// ascending and at most the capacity.
  explicit BottomSample(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  /// Where a candidate goes in a sample of capacity `capacity`:
  /// `order(held)` is `held <=> candidate`. Returns nullopt when the
  /// candidate is turned away: an equal entry is held, or the sample is
  /// full and its largest entry is `<=` the candidate. Being turned away
  /// also means every sample of a superset of this sample's offers turns
  /// the candidate away, which lets Algorithm 7 stop walking down its
  /// levels.
  template <typename Order>
  std::optional<std::size_t> Place(std::size_t capacity,
                                   Order&& order) const {
    if (entries_.size() >= capacity &&
        (entries_.empty() || order(entries_.back()) <= 0)) {
      return std::nullopt;
    }
    const auto at = std::partition_point(
        entries_.begin(), entries_.end(),
        [&order](const Entry& held) { return order(held) < 0; });
    if (at != entries_.end() && order(*at) == 0) return std::nullopt;
    return static_cast<std::size_t>(at - entries_.begin());
  }

  /// Inserts `entry` at a `Place` index. Returns the largest entry when
  /// the sample was full, which the insertion evicts.
  std::optional<Entry> Insert(std::size_t index, const Entry& entry,
                              std::size_t capacity) {
    std::optional<Entry> evicted;
    if (entries_.size() >= capacity) {
      evicted = entries_.back();
      entries_.pop_back();
    }
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(index),
                    entry);
    return evicted;
  }

  /// Offers an entry that orders itself. Returns whether it was added
  /// (see `Place` for when it is not).
  bool Offer(const Entry& entry, std::size_t capacity) {
    const std::optional<std::size_t> index = Place(
        capacity, [&entry](const Entry& held) { return held <=> entry; });
    if (!index.has_value()) return false;
    Insert(*index, entry, capacity);
    return true;
  }

  /// Makes this the bottom-`capacity` of the union of both samples'
  /// offers: a sorted merge that keeps one of two equal entries and stops
  /// at `capacity`. Exact, commutative and associative.
  /// `compare(mine, theirs)` orders an entry of this sample against one
  /// of `other`; `adopt(theirs)` makes the entry kept for one of
  /// `other`'s, and `drop(mine)` is called for each entry of this sample
  /// that is not kept.
  template <typename Compare, typename Adopt, typename Drop>
  void Merge(const BottomSample& other, std::size_t capacity,
             Compare&& compare, Adopt&& adopt, Drop&& drop) {
    const std::vector<Entry>& theirs = other.entries_;
    if (theirs.empty()) return;
    std::vector<Entry> merged;
    merged.reserve(std::min(capacity, entries_.size() + theirs.size()));
    auto a = entries_.begin();
    auto b = theirs.begin();
    while (merged.size() < capacity &&
           (a != entries_.end() || b != theirs.end())) {
      const std::weak_ordering order =
          a == entries_.end()  ? std::weak_ordering::greater
          : b == theirs.end() ? std::weak_ordering::less
                              : std::weak_ordering(compare(*a, *b));
      if (order <= 0) {
        merged.push_back(*a++);
        if (order == 0) ++b;
      } else {
        merged.push_back(adopt(*b++));
      }
    }
    for (; a != entries_.end(); ++a) drop(*a);
    entries_ = std::move(merged);
  }

  /// `Merge` for entries that order themselves.
  void Merge(const BottomSample& other, std::size_t capacity) {
    Merge(
        other, capacity,
        [](const Entry& mine, const Entry& theirs) { return mine <=> theirs; },
        [](const Entry& theirs) { return theirs; }, [](const Entry&) {});
  }

  /// The sample, ascending (size `<= capacity`).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Space used: the entries held, allocated as they arrive.
  SpaceUsage EstimateSpace() const {
    SpaceUsage usage;
    usage.words =
        entries_.size() * CeilDiv(sizeof(Entry), sizeof(std::uint64_t));
    usage.bytes = sizeof(*this) + entries_.capacity() * sizeof(Entry);
    return usage;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace himpact

#endif  // HIMPACT_SKETCH_BOTTOM_SAMPLE_H_
