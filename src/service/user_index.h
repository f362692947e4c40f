#ifndef HIMPACT_SERVICE_USER_INDEX_H_
#define HIMPACT_SERVICE_USER_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hash/mix.h"
#include "stream/types.h"

/// \file
/// One registry stripe's user table (service/registry.h).
///
/// An open-addressing index of 16-byte `{id, entry}` slots with linear
/// probing over address-stable, chunked entry storage. Users are never
/// erased, so the index needs no tombstones, and an entry pointer stays
/// valid while the index grows: growth rehashes the slots only. The
/// index keeps its load at or below 7/8 and doubles, so a user costs
/// its value plus 16/load bytes of slots (18–37 B). The id lives in the
/// slot only.
///
/// A slot's home is the high bits of `SplitMix64(id)`. The registry
/// picks the stripe from the same hash modulo the stripe count, so the
/// caller computes it once and passes it in; the high bits stay spread
/// within a stripe.
///
/// Not thread-safe: the stripe's mutex guards it.

namespace himpact {

template <typename Value>
class UserIndex {
 public:
  /// Users stored.
  std::size_t size() const { return size_; }

  /// The entry of `id`, or null. `hash` is `SplitMix64(id)`.
  Value* Find(AuthorId id, std::uint64_t hash) { return Lookup(id, hash); }
  const Value* Find(AuthorId id, std::uint64_t hash) const {
    return Lookup(id, hash);
  }
  Value* Find(AuthorId id) { return Lookup(id, SplitMix64(id)); }

  /// The entry of `id`, inserting a value-initialized one when absent;
  /// `.second` tells whether it did. `hash` is `SplitMix64(id)`.
  std::pair<Value*, bool> FindOrInsert(AuthorId id, std::uint64_t hash) {
    if ((size_ + 1) * 8 > slots_.size() * 7) Grow(slots_.size() * 2);
    std::size_t i = Home(hash);
    for (; slots_[i].entry != nullptr; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return {slots_[i].entry, false};
    }
    if (size_ % kChunkEntries == 0) {
      chunks_.push_back(std::make_unique<Value[]>(kChunkEntries));
    }
    Value* entry = &chunks_.back()[size_ % kChunkEntries];
    slots_[i] = {id, entry};
    ++size_;
    return {entry, true};
  }

  /// Sizes the slots so `n` users fit without growing.
  void Reserve(std::size_t n) {
    std::size_t capacity = kMinSlots;
    while (n * 8 > capacity * 7) capacity *= 2;
    if (capacity > slots_.size()) Grow(capacity);
  }

  /// Starts loading the cache line of `hash`'s home slot.
  void PrefetchHome(std::uint64_t hash) const {
    if (size_ != 0) __builtin_prefetch(&slots_[Home(hash)]);
  }

  /// Calls `visit(id, value)` once per user, in slot order (which
  /// depends on the ids and the insertion history).
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.entry != nullptr) visit(slot.id, std::as_const(*slot.entry));
    }
  }

 private:
  /// Empty while `entry` is null; ids span all 64 bits, so no id value
  /// can mark an empty slot.
  struct Slot {
    AuthorId id = 0;
    Value* entry = nullptr;
  };
  static_assert(sizeof(Slot) == 16);

  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kChunkEntries = 256;

  Value* Lookup(AuthorId id, std::uint64_t hash) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = Home(hash);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.entry == nullptr) return nullptr;
      if (slot.id == id) return slot.entry;
    }
  }

  std::size_t Home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> shift_);
  }

  void Grow(std::size_t capacity) {
    if (capacity < kMinSlots) capacity = kMinSlots;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    while (capacity > 1) {
      capacity >>= 1;
      --shift_;
    }
    for (const Slot& slot : old) {
      if (slot.entry == nullptr) continue;
      std::size_t i = Home(SplitMix64(slot.id));
      while (slots_[i].entry != nullptr) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  /// Entries, `kChunkEntries` per chunk, in insertion order; never move.
  std::vector<std::unique_ptr<Value[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_USER_INDEX_H_
