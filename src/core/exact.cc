#include "core/exact.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace himpact {

std::uint64_t ExactHIndex(const std::vector<std::uint64_t>& values) {
  const std::uint64_t n = values.size();
  if (n == 0) return 0;
  // buckets[c] = number of values equal to c, with values > n collapsed
  // into bucket n (they can never raise the H-index above n).
  std::vector<std::uint64_t> buckets(n + 1, 0);
  for (const std::uint64_t v : values) {
    ++buckets[std::min(v, n)];
  }
  std::uint64_t at_least = 0;
  for (std::uint64_t i = n;; --i) {
    at_least += buckets[i];
    if (at_least >= i) return i;
    if (i == 0) break;
  }
  return 0;
}

std::uint64_t HIndexSupportSize(const std::vector<std::uint64_t>& values) {
  const std::uint64_t h = ExactHIndex(values);
  if (h == 0) return 0;
  std::uint64_t support = 0;
  for (const std::uint64_t v : values) {
    if (v >= h) ++support;
  }
  return support;
}

void IncrementalExactHIndex::Add(std::uint64_t value) {
  const std::uint64_t h = heap_.size();
  if (value <= h) return;  // cannot raise the H-index above h
  heap_.push_back(value);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  // Now |heap_| = h + 1. The H-index becomes h + 1 iff all h + 1 retained
  // values are >= h + 1; otherwise the minimum (== some value <= h) can
  // never count toward a future, larger H-index and is evicted.
  if (heap_.front() < h + 1) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
  }
}

SpaceUsage IncrementalExactHIndex::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = heap_.size();
  usage.bytes = sizeof(*this) + heap_.capacity() * sizeof(std::uint64_t);
  return usage;
}

namespace {
constexpr std::uint64_t kIncrementalExactMagic = 0x48494d5049455831ULL;
constexpr std::uint64_t kExactCashRegisterMagic = 0x48494d5045435231ULL;
}  // namespace

void IncrementalExactHIndex::SerializeTo(ByteWriter& writer) const {
  writer.U64(kIncrementalExactMagic);
  writer.U64(heap_.size());
  for (const std::uint64_t value : heap_) writer.U64(value);
}

StatusOr<IncrementalExactHIndex> IncrementalExactHIndex::DeserializeFrom(
    ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kIncrementalExactMagic) {
    return Status::InvalidArgument("not an IncrementalExactHIndex checkpoint");
  }
  std::uint64_t size = 0;
  if (!reader.U64(&size)) {
    return Status::InvalidArgument("truncated IncrementalExactHIndex");
  }
  if (size > reader.remaining() / 8) {
    return Status::InvalidArgument("corrupt IncrementalExactHIndex size");
  }
  IncrementalExactHIndex tracker;
  tracker.heap_.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t value = 0;
    if (!reader.U64(&value)) {
      return Status::InvalidArgument("truncated IncrementalExactHIndex");
    }
    // Invariant: every retained value counts toward H-index == size.
    if (value < size) {
      return Status::InvalidArgument(
          "IncrementalExactHIndex heap entry below its H-index");
    }
    tracker.heap_.push_back(value);
  }
  if (!std::is_heap(tracker.heap_.begin(), tracker.heap_.end(),
                    std::greater<>())) {
    return Status::InvalidArgument("corrupt IncrementalExactHIndex heap");
  }
  return tracker;
}

void ExactCashRegisterHIndex::Update(std::uint64_t paper, std::int64_t delta) {
  HIMPACT_CHECK_MSG(delta >= 0, "cash-register updates must be non-negative");
  if (delta == 0) return;
  std::uint64_t& count = counts_[paper];
  const std::uint64_t old_count = count;
  count += static_cast<std::uint64_t>(delta);

  if (old_count > 0) {
    auto it = histogram_.find(old_count);
    if (--(it->second) == 0) histogram_.erase(it);
  }
  ++histogram_[count];

  // Track |{papers with count >= h+1}| across the threshold crossing.
  if (old_count < h_ + 1 && count >= h_ + 1) ++ge_h_plus_1_;

  // Advance h while h+1 papers reach h+1 citations. Each advance peels
  // the papers sitting exactly at the new h off the >= h+1 tally.
  while (ge_h_plus_1_ >= h_ + 1) {
    ++h_;
    const auto it = histogram_.find(h_);
    const std::uint64_t exactly_h = it == histogram_.end() ? 0 : it->second;
    HIMPACT_DCHECK(ge_h_plus_1_ >= exactly_h);
    ge_h_plus_1_ -= exactly_h;
  }
}

std::uint64_t ExactCashRegisterHIndex::Count(std::uint64_t paper) const {
  const auto it = counts_.find(paper);
  return it == counts_.end() ? 0 : it->second;
}

void ExactCashRegisterHIndex::SerializeTo(ByteWriter& writer) const {
  writer.U64(kExactCashRegisterMagic);
  writer.U64(counts_.size());
  // Sort for a deterministic byte stream (map iteration order is not
  // stable across standard libraries).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
      counts_.begin(), counts_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [paper, count] : sorted) {
    writer.U64(paper);
    writer.U64(count);
  }
}

StatusOr<ExactCashRegisterHIndex> ExactCashRegisterHIndex::DeserializeFrom(
    ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kExactCashRegisterMagic) {
    return Status::InvalidArgument("not an ExactCashRegisterHIndex checkpoint");
  }
  std::uint64_t num_papers = 0;
  if (!reader.U64(&num_papers)) {
    return Status::InvalidArgument("truncated ExactCashRegisterHIndex");
  }
  if (num_papers > reader.remaining() / 16) {
    return Status::InvalidArgument("corrupt ExactCashRegisterHIndex size");
  }
  ExactCashRegisterHIndex tracker;
  for (std::uint64_t i = 0; i < num_papers; ++i) {
    std::uint64_t paper = 0;
    std::uint64_t count = 0;
    if (!reader.U64(&paper) || !reader.U64(&count)) {
      return Status::InvalidArgument("truncated ExactCashRegisterHIndex");
    }
    if (count == 0 ||
        count > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max())) {
      return Status::InvalidArgument(
          "corrupt ExactCashRegisterHIndex paper count");
    }
    if (tracker.counts_.contains(paper)) {
      return Status::InvalidArgument(
          "duplicate paper in ExactCashRegisterHIndex checkpoint");
    }
    // Replaying each aggregate count through Update rebuilds the
    // histogram and the H-index incrementally — one code path to trust.
    tracker.Update(paper, static_cast<std::int64_t>(count));
  }
  return tracker;
}

SpaceUsage ExactCashRegisterHIndex::EstimateSpace() const {
  SpaceUsage usage;
  usage.words = counts_.size() * 2 + histogram_.size() * 2 + 2;
  usage.bytes = sizeof(*this) +
                counts_.size() * sizeof(std::uint64_t) * 3 +
                histogram_.size() * sizeof(std::uint64_t) * 3;
  return usage;
}

}  // namespace himpact
