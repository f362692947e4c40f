#ifndef HIMPACT_SKETCH_BOTTOM_SAMPLE_H_
#define HIMPACT_SKETCH_BOTTOM_SAMPLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/math_util.h"
#include "common/space.h"
#include "common/status.h"

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

namespace himpact {

/// The `s` smallest distinct entries offered, sorted ascending. `Entry`
/// needs `operator<` (a strict total order) and `operator==`.
template <typename Entry>
class BottomSample {
 public:
  /// Offers one entry to a sample of capacity `capacity`. Returns false
  /// when it is not added: an equal entry is already held, or the sample
  /// is full and its largest entry is `<=` this one. A false return also
  /// means every sample of a superset of this sample's offers rejects
  /// the entry, which lets Algorithm 7 stop walking down its levels.
  bool Offer(const Entry& entry, std::size_t capacity) {
    const bool full = entries_.size() >= capacity;
    if (full && !(entry < entries_.back())) return false;
    const auto at = std::lower_bound(entries_.begin(), entries_.end(), entry);
    if (at != entries_.end() && *at == entry) return false;
    const std::size_t index = static_cast<std::size_t>(at - entries_.begin());
    if (full) entries_.pop_back();
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(index),
                    entry);
    return true;
  }

  /// Makes this the bottom-`capacity` of the union of both samples'
  /// offers: a sorted merge that drops equal entries and stops at
  /// `capacity`. Exact, commutative and associative.
  void Merge(const BottomSample& other, std::size_t capacity) {
    if (other.entries_.empty()) return;
    std::vector<Entry> merged;
    merged.reserve(
        std::min(capacity, entries_.size() + other.entries_.size()));
    auto a = entries_.begin();
    auto b = other.entries_.begin();
    while (merged.size() < capacity &&
           (a != entries_.end() || b != other.entries_.end())) {
      if (b == other.entries_.end() || (a != entries_.end() && *a < *b)) {
        merged.push_back(*a++);
      } else {
        if (a != entries_.end() && *a == *b) ++a;
        merged.push_back(*b++);
      }
    }
    entries_ = std::move(merged);
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

  /// Appends a checkpoint; `write_entry(writer, entry)` encodes one entry.
  template <typename WriteEntry>
  void SerializeTo(ByteWriter& writer, WriteEntry&& write_entry) const {
    writer.U64(entries_.size());
    for (const Entry& entry : entries_) write_entry(writer, entry);
  }

  /// Restores a sample of capacity `capacity` from a `SerializeTo`
  /// checkpoint; `read_entry(reader, &entry)` must return a Status and
  /// decode what `write_entry` wrote. Rejects more than `capacity`
  /// entries and entries not in strictly ascending order (which also
  /// rejects a repeated entry).
  template <typename ReadEntry>
  static StatusOr<BottomSample> DeserializeFrom(ByteReader& reader,
                                                std::size_t capacity,
                                                ReadEntry&& read_entry) {
    std::uint64_t size = 0;
    if (!reader.U64(&size)) {
      return Status::InvalidArgument("truncated bottom sample");
    }
    if (size > capacity) {
      return Status::InvalidArgument("bottom sample larger than its capacity");
    }
    BottomSample sample;
    for (std::uint64_t i = 0; i < size; ++i) {
      Entry entry;
      const Status status = read_entry(reader, &entry);
      if (!status.ok()) return status;
      if (!sample.entries_.empty() && !(sample.entries_.back() < entry)) {
        return Status::InvalidArgument(
            "bottom sample entries not strictly ascending");
      }
      sample.entries_.push_back(entry);
    }
    return sample;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace himpact

#endif  // HIMPACT_SKETCH_BOTTOM_SAMPLE_H_
