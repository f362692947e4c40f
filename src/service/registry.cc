#include "service/registry.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/envelope.h"
#include "common/math_util.h"
#include "fault/fault.h"
#include "hash/mix.h"

namespace himpact {
namespace {

// The magic is "HIMPSRG" and a layout digit, its low byte. HIMPSRG2
// added the segment-generation bound after the header, and HIMPSRG3
// dropped the archive sketch that followed the counters. Both earlier
// layouts still decode: the archive is parsed and dropped, and a
// HIMPSRG1 payload (no bound) adopts every generation. HIMPSRG4 has
// HIMPSRG3's fields; it marks service stripe payloads that no longer
// end in a heavy-hitters grid (service/service.cc).
constexpr std::uint64_t kStripeMagic = 0x48494d5053524734ULL;  // HIMPSRG4

/// Fixed per-user overhead charged against the memory budget on top of
/// the state record: the user index's slots (user_index.h), 16-byte
/// `{id, entry}` slots at a load of 7/8 down to 7/16 (the index doubles
/// at 7/8), so 18–37 B per user with the id. The value is the allowance
/// the `std::unordered_map` node and bucket had, which still covers the
/// slots, so budget charges and evictions did not move with the index.
constexpr std::uint64_t kMapNodeOverheadBytes = 48;

/// Bytes of the smallest user record `SerializeStripe` writes (id,
/// tier, events, last_touch, floor, cold_h), which bounds how many users
/// a payload can hold.
constexpr std::uint64_t kMinUserRecordBytes = 41;

/// A segment record's decoded payload: the full cold/hot state the user
/// held the moment it was paged out.
struct SegmentRecordState {
  UserTier tier = UserTier::kCold;  // kCold or kHot only
  std::uint64_t events = 0;
  double floor = 0.0;
  std::uint64_t cold_h = 0;
  std::vector<std::uint64_t> values;
  std::optional<ExponentialHistogramEstimator> sketch;
};

/// Serializes the evicted state into a `kSparseSegmentRecord` envelope.
/// Layout: tier u8 (0 cold / 1 hot), then varints: events, the floor's
/// IEEE-754 bits, cold_h, then the cold values (count, values) or the
/// hot sketch's nonzero buckets (`SerializeSparseTo`). `last_touch` is
/// deliberately excluded (stripe-local clock, refreshed on page-in).
std::vector<std::uint8_t> EncodeSegmentRecord(const UserTier tier,
                                              const std::uint64_t events,
                                              const double floor,
                                              const std::uint64_t cold_h,
                                              const std::vector<std::uint64_t>&
                                                  values,
                                              const ExponentialHistogramEstimator*
                                                  sketch) {
  std::uint64_t floor_bits;
  std::memcpy(&floor_bits, &floor, sizeof(floor_bits));
  ByteWriter writer;
  writer.U8(static_cast<std::uint8_t>(tier));
  writer.Varint(events);
  writer.Varint(floor_bits);
  writer.Varint(cold_h);
  if (tier == UserTier::kCold) {
    writer.Varint(values.size());
    for (const std::uint64_t v : values) writer.Varint(v);
  } else {
    sketch->SerializeSparseTo(writer);
  }
  return SealEnvelope(CheckpointTag::kSparseSegmentRecord, writer.buffer());
}

/// The envelope's tag field (0 when too short to hold one; `OpenEnvelope`
/// then rejects the record).
std::uint32_t EnvelopeTagOf(const std::vector<std::uint8_t>& envelope) {
  ByteReader reader(envelope);
  std::uint64_t magic_and_version = 0;
  std::uint32_t tag = 0;
  return reader.U64(&magic_and_version) && reader.U32(&tag) ? tag : 0;
}

/// Opens and decodes a segment record: the `kSparseSegmentRecord` layout
/// above, or the fixed-width `kSegmentRecord` layout earlier builds wrote
/// (events u64, floor f64, cold_h u64, then count + u64 values or the
/// dense `SerializeTo` sketch). `eps` and `max_h` build a sparse sketch.
StatusOr<SegmentRecordState> DecodeSegmentRecord(
    const std::vector<std::uint8_t>& envelope, double eps,
    std::uint64_t max_h) {
  const bool dense = EnvelopeTagOf(envelope) ==
                     static_cast<std::uint32_t>(CheckpointTag::kSegmentRecord);
  StatusOr<std::vector<std::uint8_t>> payload = OpenEnvelope(
      envelope, dense ? CheckpointTag::kSegmentRecord
                      : CheckpointTag::kSparseSegmentRecord);
  if (!payload.ok()) return payload.status();
  ByteReader reader(payload.value());
  // One field of either layout: a fixed-width u64 or a varint.
  const auto field = [&reader, dense](std::uint64_t* value) {
    return dense ? reader.U64(value) : reader.Varint(value);
  };
  SegmentRecordState state;
  std::uint8_t tier = 0;
  std::uint64_t floor_bits = 0;
  if (!reader.U8(&tier) || !field(&state.events) || !field(&floor_bits) ||
      !field(&state.cold_h)) {
    return Status::InvalidArgument("truncated segment record");
  }
  std::memcpy(&state.floor, &floor_bits, sizeof(state.floor));
  if (tier > static_cast<std::uint8_t>(UserTier::kHot)) {
    return Status::InvalidArgument("bad segment record tier");
  }
  state.tier = static_cast<UserTier>(tier);
  if (state.tier == UserTier::kCold) {
    // Each value takes at least one byte (eight in the dense layout).
    std::uint64_t n = 0;
    if (!field(&n) || n > reader.remaining() / (dense ? 8 : 1)) {
      return Status::InvalidArgument("bad segment record value count");
    }
    state.values.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t v = 0; v < n; ++v) {
      std::uint64_t value = 0;
      if (!field(&value)) {
        return Status::InvalidArgument("truncated segment record values");
      }
      state.values.push_back(value);
    }
  } else {
    StatusOr<ExponentialHistogramEstimator> sketch =
        dense ? ExponentialHistogramEstimator::DeserializeFrom(reader)
              : ExponentialHistogramEstimator::DeserializeSparseFrom(
                    reader, eps, max_h);
    if (!sketch.ok()) return sketch.status();
    state.sketch = std::move(sketch).value();
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("segment record has trailing bytes");
  }
  return state;
}

}  // namespace

StatusOr<TieredUserRegistry> TieredUserRegistry::Create(
    const ServiceOptions& options) {
  if (!(options.eps > 0.0 && options.eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (options.max_h < 1) {
    return Status::InvalidArgument("max_h must be >= 1");
  }
  if (!GeometricGridFits(options.max_h, options.eps)) {
    return Status::InvalidArgument(
        "eps too small for max_h: the sketch grid would exceed " +
        std::to_string(kMaxGeometricLevels) + " levels");
  }
  if (options.num_stripes < 1 || options.num_stripes > 4096) {
    return Status::InvalidArgument("num_stripes must be in 1..4096");
  }
  if (options.promote_threshold < 1) {
    return Status::InvalidArgument("promote_threshold must be >= 1");
  }
  if (options.memory_budget_bytes < 1) {
    return Status::InvalidArgument("memory_budget_bytes must be >= 1");
  }
  if (options.leaderboard_capacity < 1) {
    return Status::InvalidArgument("leaderboard_capacity must be >= 1");
  }
  if (options.enable_heavy_hitters) {
    if (!(options.hh_eps > 0.0 && options.hh_eps < 1.0)) {
      return Status::InvalidArgument("hh_eps must be in (0, 1)");
    }
    if (!(options.hh_delta > 0.0 && options.hh_delta < 1.0)) {
      return Status::InvalidArgument("hh_delta must be in (0, 1)");
    }
    if (options.hh_max_papers < 1) {
      return Status::InvalidArgument("hh_max_papers must be >= 1");
    }
    if (!GeometricGridFits(options.hh_max_papers, options.hh_eps)) {
      return Status::InvalidArgument(
          "hh_eps too small for hh_max_papers: the detector grid would "
          "exceed " + std::to_string(kMaxGeometricLevels) + " levels");
    }
  }
  TieredUserRegistry registry(options);
  Status attached = registry.AttachSegmentStores();
  if (!attached.ok()) return attached;
  return registry;
}

Status TieredUserRegistry::AttachSegmentStores() {
  if (options_.segment_dir.empty()) return Status::OK();
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    Status opened = OpenSegmentStore(i, kAllSegmentGenerations);
    if (!opened.ok()) return opened;
  }
  return Status::OK();
}

Status TieredUserRegistry::OpenSegmentStore(
    std::size_t i, std::uint64_t generation_bound) {
  SegmentStoreOptions store_options;
  store_options.dir = options_.segment_dir;
  store_options.stripe = i;
  StatusOr<std::unique_ptr<SegmentStore>> store =
      SegmentStore::Open(store_options, generation_bound);
  if (!store.ok()) {
    return Status(store.status().code(),
                  "segment store for stripe " + std::to_string(i) + ": " +
                      store.status().message());
  }
  stripes_[i]->store = std::move(store).value();
  return Status::OK();
}

std::uint64_t TieredUserRegistry::StripeEvents(std::size_t i) const {
  HIMPACT_CHECK(i < stripes_.size());
  std::lock_guard<std::mutex> lock(stripes_[i]->mu);
  return stripes_[i]->events;
}

TieredUserRegistry::TieredUserRegistry(const ServiceOptions& options)
    : options_(options),
      stripe_budget_bytes_(std::max<std::uint64_t>(
          1, options.memory_budget_bytes / options.num_stripes)) {
  stripes_.reserve(options_.num_stripes);
  for (std::size_t i = 0; i < options_.num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ExponentialHistogramEstimator TieredUserRegistry::MakeSketch() const {
  return std::move(
             ExponentialHistogramEstimator::Create(options_.eps,
                                                   options_.max_h))
      .value();
}

std::size_t TieredUserRegistry::StripeOf(AuthorId user) const {
  return static_cast<std::size_t>(SplitMix64(user) % stripes_.size());
}

std::uint64_t TieredUserRegistry::BaseBytes() {
  return sizeof(UserState) + kMapNodeOverheadBytes;
}

std::uint64_t TieredUserRegistry::ColdExtraBytes(const UserState& state) {
  return state.values.capacity() * sizeof(std::uint64_t);
}

std::uint64_t TieredUserRegistry::HotExtraBytes(const UserState& state) {
  return state.sketch->EstimateSpace().bytes;
}

std::uint64_t TieredUserRegistry::EntryBytes(const UserState& state) const {
  switch (state.tier) {
    case UserTier::kCold:
      return BaseBytes() + ColdExtraBytes(state);
    case UserTier::kHot:
      return BaseBytes() + HotExtraBytes(state);
    case UserTier::kFrozen:
    case UserTier::kSegment:
      return BaseBytes();
  }
  return BaseBytes();
}

double TieredUserRegistry::EstimateLocked(const UserState& state) const {
  double estimate = state.floor;
  switch (state.tier) {
    case UserTier::kCold:
      estimate = std::max(estimate, static_cast<double>(state.cold_h));
      break;
    case UserTier::kHot:
      estimate = std::max(estimate, state.sketch->Estimate());
      break;
    case UserTier::kFrozen:
    case UserTier::kSegment:
      // The floor alone: demotion raised it to the live estimate, and
      // nothing changes a demoted user until an Add reactivates it.
      break;
  }
  return estimate;
}

void TieredUserRegistry::PromoteLocked(Stripe& stripe, UserState& state) {
  // Fault hook: a firing `alloc-fail` models the promotion sketch's
  // allocation failing. The promotion is abandoned — the user keeps its
  // exact cold state (a correct answer, just costlier) and the next
  // event over the threshold retries.
  if (FaultRegistry::Global().AnyArmed() &&
      FaultRegistry::Global().ShouldFire(FaultPoint::kAllocFail)) {
    ++stripe.alloc_failures;
    return;
  }
  auto sketch =
      std::make_unique<ExponentialHistogramEstimator>(MakeSketch());
  for (const std::uint64_t value : state.values) sketch->Add(value);
  // The exact cold H-index is a valid lower bound forever (H-indexes
  // are monotone), so carry it as the floor under the sketch estimate.
  state.floor = std::max(state.floor, static_cast<double>(state.cold_h));
  state.values.clear();
  state.values.shrink_to_fit();
  state.sketch = std::move(sketch);
  state.tier = UserTier::kHot;
  ++stripe.promotions;
}

void TieredUserRegistry::DemoteLocked(Stripe& stripe, AuthorId user,
                                      UserState& state) {
  // `state` is cold or hot (the budget scan passes no other tier).
  state.floor = std::max(state.floor, EstimateLocked(state));
  if (stripe.store != nullptr) {
    // Paged demotion: the full cold/hot state goes to the stripe's
    // segment store, which buffers it even when a seal fails (the state
    // is paged, not forgotten).
    stripe.store->Put(user, EncodeSegmentRecord(state.tier, state.events,
                                                state.floor, state.cold_h,
                                                state.values,
                                                state.sketch.get()));
  }
  state.values.clear();
  state.values.shrink_to_fit();
  state.sketch.reset();
  state.tier = stripe.store != nullptr ? UserTier::kSegment : UserTier::kFrozen;
  ++stripe.demotions;
}

void TieredUserRegistry::ReactivateLocked(Stripe& stripe, AuthorId user,
                                          UserState& state) {
  StatusOr<std::vector<std::uint8_t>> record = stripe.store->Get(user);
  StatusOr<SegmentRecordState> decoded =
      record.ok()
          ? DecodeSegmentRecord(record.value(), options_.eps, options_.max_h)
          : StatusOr<SegmentRecordState>(record.status());
  if (decoded.ok()) {
    SegmentRecordState& paged = decoded.value();
    // The RAM record kept counting events while paged out; keep the
    // larger counter (post-page-out events were floor-only updates only
    // if a failure path ran, so normally they are equal).
    state.events = std::max(state.events, paged.events);
    state.floor = std::max(state.floor, paged.floor);
    state.cold_h = paged.cold_h;
    state.values = std::move(paged.values);
    if (paged.tier == UserTier::kHot) {
      state.sketch = std::make_unique<ExponentialHistogramEstimator>(
          std::move(*paged.sketch));
    }
    state.tier = paged.tier;
    stripe.store->Forget(user);
    ++stripe.promotions;
    return;
  }
  // A record that reads but does not decode is a failed page-in too
  // (the store counted the failed reads).
  if (record.ok()) ++stripe.undecodable_records;
  // Page-in failed (I/O error, armed `segment-map-fail`, or a corrupt
  // record): degrade exactly like a frozen reactivation — fresh sketch
  // over the suffix with the floor carried — rather than crash or lose
  // the event. Under `alloc-fail` stay segment-resident serving the
  // floor; the next event retries the page-in.
  if (FaultRegistry::Global().AnyArmed() &&
      FaultRegistry::Global().ShouldFire(FaultPoint::kAllocFail)) {
    ++stripe.alloc_failures;
    return;
  }
  stripe.store->Forget(user);
  state.sketch = std::make_unique<ExponentialHistogramEstimator>(MakeSketch());
  state.tier = UserTier::kHot;
  ++stripe.promotions;
}

void TieredUserRegistry::UpdateBoardLocked(Stripe& stripe, AuthorId user,
                                           double estimate) {
  const bool full = stripe.board.size() >= options_.leaderboard_capacity;
  // Fast path: at or below a full board's minimum nothing changes. An
  // on-board user's entry can only be raised past it, and an off-board
  // user must beat it to replace the smallest entry.
  if (full && estimate <= stripe.board_min) return;
  for (LeaderboardEntry& entry : stripe.board) {
    if (entry.user == user) {
      if (estimate > entry.estimate) {
        entry.estimate = estimate;
        RefreshBoardMinLocked(stripe);
      }
      return;
    }
  }
  if (!full) {
    stripe.board.push_back({user, estimate});
    RefreshBoardMinLocked(stripe);
    return;
  }
  // Replace the smallest entry (this estimate beats it). Because
  // maintained estimates are monotone non-decreasing and the board is
  // touched on every Add, the board min never decreases, so any user
  // that ever cleared the bar is (and stays) on the board.
  std::size_t min_index = 0;
  for (std::size_t i = 1; i < stripe.board.size(); ++i) {
    if (stripe.board[i].estimate < stripe.board[min_index].estimate) {
      min_index = i;
    }
  }
  stripe.board[min_index] = {user, estimate};
  RefreshBoardMinLocked(stripe);
}

void TieredUserRegistry::RefreshBoardMinLocked(Stripe& stripe) const {
  if (stripe.board.size() < options_.leaderboard_capacity) return;
  double board_min = stripe.board.front().estimate;
  for (const LeaderboardEntry& entry : stripe.board) {
    board_min = std::min(board_min, entry.estimate);
  }
  stripe.board_min = board_min;
}

void TieredUserRegistry::EnforceBudgetLocked(Stripe& stripe) {
  if (stripe.resident_bytes <= stripe_budget_bytes_) return;
  // Hysteresis: demote down to 90% of the budget so one oversized add
  // does not trigger a scan per event.
  const std::uint64_t target = stripe_budget_bytes_ - stripe_budget_bytes_ / 10;
  // When the last scan proved the target unreachable (irreducible
  // per-user records alone exceed it), rescanning on every Add is a
  // full map walk + sort for nothing. Skip until enough *evictable*
  // bytes have accumulated above that floor to make a scan pay for
  // itself; the band is 10% of the budget, matching the hysteresis.
  if (stripe.unmeetable_floor_bytes > 0 &&
      stripe.resident_bytes <
          stripe.unmeetable_floor_bytes + stripe_budget_bytes_ / 10) {
    return;
  }
  // Oldest-first victim list over the resident list (hot and cold
  // users both shed their variable storage when demoted; frozen and
  // segment-resident users are already minimal, so the scan drops
  // them from the list).
  std::vector<std::pair<std::uint64_t, AuthorId>> victims;
  victims.reserve(stripe.resident.size());
  std::size_t kept = 0;
  for (const AuthorId user : stripe.resident) {
    UserState& state = *stripe.users.Find(user);
    if (state.tier == UserTier::kCold || state.tier == UserTier::kHot) {
      stripe.resident[kept++] = user;
      victims.emplace_back(state.last_touch, user);
    } else {
      state.listed = false;
    }
  }
  stripe.resident.resize(kept);
  std::sort(victims.begin(), victims.end());
  for (const auto& [touch, user] : victims) {
    if (stripe.resident_bytes <= target) break;
    UserState& state = *stripe.users.Find(user);
    const std::uint64_t before = EntryBytes(state);
    DemoteLocked(stripe, user, state);
    stripe.resident_bytes -= before - EntryBytes(state);
  }
  // If every user is demoted the budget may still be exceeded by the
  // irreducible per-user records; nothing more to shed without
  // forgetting users outright. Remember that level so the next Adds do
  // not rescan until real evictable state builds up again.
  stripe.unmeetable_floor_bytes =
      stripe.resident_bytes > target ? stripe.resident_bytes : 0;
}

double TieredUserRegistry::Add(AuthorId user, std::uint64_t value,
                               std::uint64_t* stripe_seq) {
  const UserEvent event{user, value};
  double estimate = 0.0;
  ApplyRun({&event, 1}, stripe_seq, &estimate);
  return estimate;
}

void TieredUserRegistry::ApplyRun(std::span<const UserEvent> events,
                                  std::uint64_t* stripe_seqs,
                                  double* estimates) {
  const std::size_t n = events.size();
  if (n == 0) return;
  // Reused across runs (serving is one thread, replay one job per
  // worker), so a steady run allocates nothing.
  thread_local std::vector<std::uint64_t> hashes;
  thread_local std::vector<std::uint32_t> starts;
  thread_local std::vector<std::uint32_t> order;
  hashes.resize(n);
  order.resize(n);
  const std::size_t num_stripes = stripes_.size();
  // A stable counting sort by stripe: `order` lists the events stripe
  // by stripe, each stripe's in log order, from `starts[s]`.
  starts.assign(num_stripes + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = SplitMix64(events[i].user);
    ++starts[hashes[i] % num_stripes + 1];
  }
  for (std::size_t s = 0; s < num_stripes; ++s) starts[s + 1] += starts[s];
  for (std::size_t i = 0; i < n; ++i) {
    order[starts[hashes[i] % num_stripes]++] = static_cast<std::uint32_t>(i);
  }
  // `starts[s]` now ends stripe s's share; stripe s - 1's ended where it
  // begins.
  std::uint32_t begin = 0;
  for (std::size_t s = 0; s < num_stripes; ++s) {
    const std::uint32_t end = starts[s];
    if (begin == end) continue;
    Stripe& stripe = *stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    ApplyStripeRunLocked(stripe, events, hashes,
                         std::span<const std::uint32_t>(order).subspan(
                             begin, end - begin),
                         stripe_seqs, estimates);
    begin = end;
  }
}

void TieredUserRegistry::ApplyStripeRunLocked(
    Stripe& stripe, std::span<const UserEvent> events,
    std::span<const std::uint64_t> hashes,
    std::span<const std::uint32_t> order, std::uint64_t* stripe_seqs,
    double* estimates) {
  // A software pipeline over the stripe's events, kAhead events between
  // its stages: event k + 2 * kAhead starts loading its home slot, event
  // k + kAhead looks itself up (the slot has arrived) and starts loading
  // its entry, and event k starts loading its hot sketch (the entry has
  // arrived) kAhead / 2 events before its step. The lookup is kept for
  // the step. A user absent at lookup time is inserted by the step; an
  // entry never moves, so a kept one stays valid while earlier steps
  // insert, promote or demote.
  constexpr std::size_t kAhead = 4;
  constexpr std::size_t kRing = 2 * kAhead;  // > kAhead, a power of 2
  std::array<UserState*, kRing> found{};
  const std::size_t m = order.size();
  const auto lookup = [&](std::size_t k) {
    const std::uint32_t i = order[k];
    UserState* state = stripe.users.Find(events[i].user, hashes[i]);
    if (state != nullptr) __builtin_prefetch(state);
    found[k % kRing] = state;
  };
  for (std::size_t k = 0; k < std::min(m, 2 * kAhead); ++k) {
    stripe.users.PrefetchHome(hashes[order[k]]);
  }
  for (std::size_t k = 0; k < std::min(m, kAhead); ++k) lookup(k);
  for (std::size_t k = 0; k < m; ++k) {
    if (k + 2 * kAhead < m) {
      stripe.users.PrefetchHome(hashes[order[k + 2 * kAhead]]);
    }
    if (k + kAhead < m) lookup(k + kAhead);
    if (k + kAhead / 2 < m) {
      const UserState* ahead = found[(k + kAhead / 2) % kRing];
      if (ahead != nullptr && ahead->sketch != nullptr) {
        __builtin_prefetch(ahead->sketch.get());
      }
    }
    const std::uint32_t i = order[k];
    const double estimate =
        AddLocked(stripe, events[i].user, hashes[i], events[i].value,
                  found[k % kRing],
                  stripe_seqs != nullptr ? &stripe_seqs[i] : nullptr);
    if (estimates != nullptr) estimates[i] = estimate;
  }
}

double TieredUserRegistry::AddLocked(Stripe& stripe, AuthorId user,
                                     std::uint64_t hash, std::uint64_t value,
                                     UserState* found,
                                     std::uint64_t* stripe_seq) {
  // Fault hook: a firing `worker-stall` wedges this stripe for the armed
  // parameter (microseconds) while holding its lock — queries against
  // the same stripe block behind it, which is what per-op deadlines and
  // degraded queries exist to survive. Under `ApplyRun` the caller holds
  // the stripe for its whole share of the run.
  if (FaultRegistry::Global().AnyArmed() &&
      FaultRegistry::Global().ShouldFire(FaultPoint::kWorkerStall)) {
    SleepForMicros(FaultRegistry::Global().param(FaultPoint::kWorkerStall));
  }
  ++stripe.events;
  if (stripe_seq != nullptr) *stripe_seq = stripe.events;

  bool inserted = false;
  if (found == nullptr) {
    std::tie(found, inserted) = stripe.users.FindOrInsert(user, hash);
  }
  UserState& state = *found;
  const std::uint64_t before = inserted ? 0 : EntryBytes(state);
  ++state.events;
  state.last_touch = ++stripe.touch_clock;

  if (state.tier == UserTier::kSegment) {
    if (stripe.store == nullptr) {
      // Restored into a service without a segment directory: the paged
      // record is unreachable, so the user is effectively frozen (floor
      // only) and takes the frozen reactivation path below.
      state.tier = UserTier::kFrozen;
    } else {
      // A new event pages the full state back into RAM and continues it
      // live (tier returns to cold/hot below).
      ReactivateLocked(stripe, user, state);
    }
  }

  switch (state.tier) {
    case UserTier::kCold: {
      state.values.push_back(value);
      // One value arrived, so the exact H-index can rise by at most 1:
      // a single count-above-threshold scan settles it.
      if (value >= state.cold_h + 1) {
        std::uint64_t at_least = 0;
        for (const std::uint64_t v : state.values) {
          if (v >= state.cold_h + 1) ++at_least;
        }
        if (at_least >= state.cold_h + 1) ++state.cold_h;
      }
      if (state.events >= options_.promote_threshold) {
        PromoteLocked(stripe, state);
      }
      break;
    }
    case UserTier::kHot:
      state.sketch->Add(value);
      break;
    case UserTier::kFrozen: {
      // Reactivation: fresh sketch over the post-demotion suffix; the
      // frozen floor keeps the estimate a valid lower bound. Under an
      // `alloc-fail` fault the reactivation is skipped — the user keeps
      // serving its floor and the next event retries.
      if (FaultRegistry::Global().AnyArmed() &&
          FaultRegistry::Global().ShouldFire(FaultPoint::kAllocFail)) {
        ++stripe.alloc_failures;
        break;
      }
      state.sketch =
          std::make_unique<ExponentialHistogramEstimator>(MakeSketch());
      state.sketch->Add(value);
      state.tier = UserTier::kHot;
      ++stripe.promotions;
      break;
    }
    case UserTier::kSegment:
      // Only reachable when the page-in was vetoed by `alloc-fail`: the
      // user keeps serving its floor and the next event retries.
      break;
  }

  if (!state.listed &&
      (state.tier == UserTier::kCold || state.tier == UserTier::kHot)) {
    state.listed = true;
    stripe.resident.push_back(user);
  }
  stripe.resident_bytes += EntryBytes(state) - before;
  const double estimate = EstimateLocked(state);
  UpdateBoardLocked(stripe, user, estimate);
  EnforceBudgetLocked(stripe);
  return estimate;
}

double TieredUserRegistry::PointHIndex(AuthorId user) const {
  UserSnapshot snapshot;
  return Lookup(user, &snapshot) ? snapshot.estimate : 0.0;
}

bool TieredUserRegistry::Lookup(AuthorId user, UserSnapshot* out) const {
  const std::uint64_t hash = SplitMix64(user);
  Stripe& stripe = StripeOfHash(hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const UserState* state = stripe.users.Find(user, hash);
  if (state == nullptr) return false;
  out->user = user;
  out->tier = state->tier;
  out->events = state->events;
  out->estimate = EstimateLocked(*state);
  return true;
}

std::vector<LeaderboardEntry> TieredUserRegistry::TopK(
    std::size_t k, std::uint64_t deadline_nanos,
    std::size_t* stripes_skipped) const {
  HIMPACT_CHECK_MSG(k <= options_.leaderboard_capacity,
                    "TopK k exceeds leaderboard_capacity");
  HIMPACT_CHECK(deadline_nanos == 0 || stripes_skipped != nullptr);
  if (stripes_skipped != nullptr) *stripes_skipped = 0;
  std::vector<LeaderboardEntry> merged;
  for (const auto& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe->mu, std::defer_lock);
    if (deadline_nanos == 0) {
      lock.lock();
    } else {
      while (!lock.try_lock() && FaultClock::NowNanos() < deadline_nanos) {
        std::this_thread::yield();
      }
    }
    if (!lock.owns_lock()) {
      ++*stripes_skipped;
      continue;
    }
    merged.insert(merged.end(), stripe->board.begin(), stripe->board.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const LeaderboardEntry& a, const LeaderboardEntry& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.user < b.user;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

RegistryStats TieredUserRegistry::Stats() const {
  RegistryStats stats;
  stats.budget_bytes = options_.memory_budget_bytes;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stats.total_events += stripe->events;
    stats.num_users += stripe->users.size();
    stripe->users.ForEach([&stats](AuthorId, const UserState& state) {
      switch (state.tier) {
        case UserTier::kCold:
          ++stats.cold_users;
          break;
        case UserTier::kHot:
          ++stats.hot_users;
          break;
        case UserTier::kFrozen:
          ++stats.frozen_users;
          break;
        case UserTier::kSegment:
          ++stats.segment_users;
          break;
      }
    });
    stats.promotions += stripe->promotions;
    stats.demotions += stripe->demotions;
    stats.resident_bytes += stripe->resident_bytes;
    stats.alloc_failures += stripe->alloc_failures;
    if (stripe->store != nullptr) {
      stats.segment_files += stripe->store->segment_files();
      stats.segment_bytes += stripe->store->segment_bytes();
      stats.segment_pending_records += stripe->store->pending_records();
      const SegmentStoreCounters& counters = stripe->store->counters();
      stats.segment_seals += counters.seals;
      stats.page_ins += counters.page_ins;
      stats.page_in_cache_hits += counters.cache_hits;
      stats.page_in_failures +=
          counters.page_in_failures + stripe->undecodable_records;
      stats.segment_dead_bytes += stripe->store->dead_record_bytes();
    }
  }
  return stats;
}

void TieredUserRegistry::SerializeStripe(std::size_t i,
                                         ByteWriter& writer) const {
  HIMPACT_CHECK(i < stripes_.size());
  Stripe& stripe = *stripes_[i];
  std::lock_guard<std::mutex> lock(stripe.mu);

  // Seal pending segment records first: a stripe checkpoint stores only
  // the tier byte for segment-resident users, so every record it
  // references must be durable on disk. Best-effort — a failed seal
  // keeps the records pending (still servable from RAM) and the users'
  // floors in the checkpoint remain valid lower bounds.
  if (stripe.store != nullptr) (void)stripe.store->Flush();

  writer.U64(kStripeMagic);
  writer.U64(static_cast<std::uint64_t>(i));
  writer.U64(static_cast<std::uint64_t>(stripes_.size()));
  // Every generation this checkpoint can reference lies below the
  // store's next one; a restore ignores the ones sealed after the save.
  writer.U64(stripe.store != nullptr ? stripe.store->next_generation()
                                     : kAllSegmentGenerations);
  writer.U64(stripe.events);
  writer.U64(stripe.promotions);
  writer.U64(stripe.demotions);
  writer.U64(stripe.touch_clock);

  // Users in sorted id order so the encoding is deterministic (the
  // index's slot order depends on the insertion history).
  std::vector<std::pair<AuthorId, const UserState*>> users;
  users.reserve(stripe.users.size());
  stripe.users.ForEach([&users](AuthorId user, const UserState& state) {
    users.emplace_back(user, &state);
  });
  std::sort(users.begin(), users.end());
  writer.U64(users.size());
  for (const auto& [user, entry] : users) {
    const UserState& state = *entry;
    writer.U64(user);
    writer.U8(static_cast<std::uint8_t>(state.tier));
    writer.U64(state.events);
    writer.U64(state.last_touch);
    writer.F64(state.floor);
    writer.U64(state.cold_h);
    switch (state.tier) {
      case UserTier::kCold:
        writer.U64(state.values.size());
        for (const std::uint64_t v : state.values) writer.U64(v);
        break;
      case UserTier::kHot:
        state.sketch->SerializeTo(writer);
        break;
      case UserTier::kFrozen:
      case UserTier::kSegment:
        // No variable payload: a frozen user's state IS the fixed
        // fields; a segment user's full state lives in its (flushed)
        // segment file.
        break;
    }
  }

  // The leaderboard in stored order, so a restored registry answers
  // TopK byte-identically (ordering among ties is positional).
  writer.U64(stripe.board.size());
  for (const LeaderboardEntry& entry : stripe.board) {
    writer.U64(entry.user);
    writer.F64(entry.estimate);
  }
}

Status TieredUserRegistry::DeserializeStripe(std::size_t i,
                                             ByteReader& reader,
                                             int* layout) {
  HIMPACT_CHECK(i < stripes_.size());

  std::uint64_t magic = 0;
  std::uint64_t index = 0;
  std::uint64_t num_stripes = 0;
  std::uint64_t generation_bound = kAllSegmentGenerations;
  if (!reader.U64(&magic) || (magic >> 8) != (kStripeMagic >> 8) ||
      (magic & 0xff) < '1' || (magic & 0xff) > '4') {
    return Status::InvalidArgument("not a registry stripe checkpoint");
  }
  const int version = static_cast<int>(magic & 0xff) - '0';
  if (!reader.U64(&index) || !reader.U64(&num_stripes) ||
      (version > 1 && !reader.U64(&generation_bound))) {
    return Status::InvalidArgument("truncated stripe header");
  }
  if (index != i || num_stripes != stripes_.size()) {
    return Status::InvalidArgument(
        "stripe checkpoint recorded for a different stripe layout");
  }

  // Decode into scratch state first; commit only a fully valid stripe.
  std::uint64_t events = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t touch_clock = 0;
  if (!reader.U64(&events) || !reader.U64(&promotions) ||
      !reader.U64(&demotions) || !reader.U64(&touch_clock)) {
    return Status::InvalidArgument("truncated stripe counters");
  }
  if (version < 3) {
    StatusOr<ExponentialHistogramEstimator> archive =
        ExponentialHistogramEstimator::DeserializeFrom(reader);
    if (!archive.ok()) return archive.status();
  }

  std::uint64_t num_users = 0;
  if (!reader.U64(&num_users)) {
    return Status::InvalidArgument("truncated user count");
  }
  UserIndex<UserState> users;
  users.Reserve(static_cast<std::size_t>(
      std::min(num_users, reader.remaining() / kMinUserRecordBytes)));
  std::vector<AuthorId> resident;
  std::uint64_t resident_bytes = 0;
  for (std::uint64_t u = 0; u < num_users; ++u) {
    std::uint64_t user = 0;
    std::uint8_t tier = 0;
    UserState state;
    if (!reader.U64(&user) || !reader.U8(&tier) ||
        !reader.U64(&state.events) || !reader.U64(&state.last_touch) ||
        !reader.F64(&state.floor) || !reader.U64(&state.cold_h)) {
      return Status::InvalidArgument("truncated user record");
    }
    if (tier > static_cast<std::uint8_t>(UserTier::kSegment)) {
      return Status::InvalidArgument("unknown user tier");
    }
    state.tier = static_cast<UserTier>(tier);
    switch (state.tier) {
      case UserTier::kCold: {
        std::uint64_t n = 0;
        if (!reader.U64(&n) || n > reader.remaining() / sizeof(std::uint64_t)) {
          return Status::InvalidArgument("bad cold value count");
        }
        state.values.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t v = 0; v < n; ++v) {
          std::uint64_t value = 0;
          if (!reader.U64(&value)) {
            return Status::InvalidArgument("truncated cold values");
          }
          state.values.push_back(value);
        }
        break;
      }
      case UserTier::kHot: {
        StatusOr<ExponentialHistogramEstimator> sketch =
            ExponentialHistogramEstimator::DeserializeFrom(reader);
        if (!sketch.ok()) return sketch.status();
        state.sketch = std::make_unique<ExponentialHistogramEstimator>(
            std::move(sketch).value());
        break;
      }
      case UserTier::kFrozen:
      case UserTier::kSegment:
        break;
    }
    resident_bytes += EntryBytes(state);
    state.listed =
        state.tier == UserTier::kCold || state.tier == UserTier::kHot;
    if (state.listed) resident.push_back(user);
    auto [entry, inserted] = users.FindOrInsert(user, SplitMix64(user));
    if (!inserted) {
      return Status::InvalidArgument("duplicate user in stripe checkpoint");
    }
    *entry = std::move(state);
  }

  std::uint64_t board_size = 0;
  if (!reader.U64(&board_size) ||
      board_size > options_.leaderboard_capacity) {
    return Status::InvalidArgument("bad leaderboard size");
  }
  std::vector<LeaderboardEntry> board;
  board.reserve(static_cast<std::size_t>(board_size));
  for (std::uint64_t b = 0; b < board_size; ++b) {
    LeaderboardEntry entry;
    if (!reader.U64(&entry.user) || !reader.F64(&entry.estimate)) {
      return Status::InvalidArgument("truncated leaderboard");
    }
    board.push_back(entry);
  }

  Stripe& stripe = *stripes_[i];
  std::lock_guard<std::mutex> lock(stripe.mu);
  // The store adopted every generation on disk, including any that
  // eviction or a later save sealed after this payload was saved.
  // Paging in from those would restore newer state than the checkpoint
  // (and a WAL replay on top would apply the same events twice), so
  // reopen on the generations the save could see.
  if (stripe.store != nullptr &&
      stripe.store->next_generation() > generation_bound) {
    Status reopened = OpenSegmentStore(i, generation_bound);
    if (!reopened.ok()) return reopened;
  }
  stripe.events = events;
  stripe.promotions = promotions;
  stripe.demotions = demotions;
  stripe.touch_clock = touch_clock;
  stripe.users = std::move(users);
  stripe.resident = std::move(resident);
  stripe.board = std::move(board);
  RefreshBoardMinLocked(stripe);
  stripe.resident_bytes = resident_bytes;
  // Residency was rebuilt from scratch; any unmeetable-budget floor the
  // previous population established no longer describes this one.
  stripe.unmeetable_floor_bytes = 0;
  if (layout != nullptr) *layout = version;
  return Status::OK();
}

}  // namespace himpact
