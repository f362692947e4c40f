#include "fault/fault.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace himpact {
namespace {

const char* const kPointNames[kNumFaultPoints] = {
    "alloc-fail", "torn-checkpoint", "worker-stall", "clock-skew",
    "net-accept-fail", "net-partial-write",
    "segment-map-fail", "segment-torn-delta", "wal-append-fail",
    "wal-torn-tail",
};

/// Parses one `name[:skip[:max_fires[:param]]]` clause into its parts.
Status ParseClause(const std::string& clause, FaultPoint* point,
                   FaultSpec* spec) {
  std::size_t start = 0;
  std::string fields[4];
  int num_fields = 0;
  while (num_fields < 4) {
    const std::size_t colon = clause.find(':', start);
    if (colon == std::string::npos) {
      fields[num_fields++] = clause.substr(start);
      break;
    }
    fields[num_fields++] = clause.substr(start, colon - start);
    start = colon + 1;
    if (num_fields == 4) {
      return Status::InvalidArgument("too many fields in fault clause '" +
                                     clause + "'");
    }
  }
  const std::optional<FaultPoint> parsed = FaultRegistry::FromName(fields[0]);
  if (!parsed.has_value()) {
    return Status::InvalidArgument("unknown fault point '" + fields[0] + "'");
  }
  *point = *parsed;
  *spec = FaultSpec{};
  std::uint64_t* const targets[3] = {&spec->skip, &spec->max_fires,
                                     &spec->param};
  for (int i = 1; i < num_fields; ++i) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(fields[i].c_str(), &end, 10);
    if (fields[i].empty() || end == nullptr || *end != '\0' || errno != 0) {
      return Status::InvalidArgument("bad number '" + fields[i] +
                                     "' in fault clause '" + clause + "'");
    }
    *targets[i - 1] = value;
  }
  return Status::OK();
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::Arm(FaultPoint point, const FaultSpec& spec) {
  Slot& slot = slots_[static_cast<int>(point)];
  slot.skip.store(spec.skip, std::memory_order_relaxed);
  slot.max_fires.store(spec.max_fires, std::memory_order_relaxed);
  slot.param.store(spec.param, std::memory_order_relaxed);
  slot.hits.store(0, std::memory_order_relaxed);
  slot.fires.store(0, std::memory_order_relaxed);
  armed_mask_.fetch_or(1u << static_cast<int>(point),
                       std::memory_order_release);
}

void FaultRegistry::Disarm(FaultPoint point) {
  armed_mask_.fetch_and(~(1u << static_cast<int>(point)),
                        std::memory_order_release);
}

void FaultRegistry::Reset() {
  armed_mask_.store(0, std::memory_order_release);
  for (Slot& slot : slots_) {
    slot.skip.store(0, std::memory_order_relaxed);
    slot.max_fires.store(0, std::memory_order_relaxed);
    slot.param.store(0, std::memory_order_relaxed);
    slot.hits.store(0, std::memory_order_relaxed);
    slot.fires.store(0, std::memory_order_relaxed);
  }
}

bool FaultRegistry::ShouldFireSlow(FaultPoint point) {
  const std::uint32_t mask = 1u << static_cast<int>(point);
  if ((armed_mask_.load(std::memory_order_acquire) & mask) == 0) return false;
  Slot& slot = slots_[static_cast<int>(point)];
  const std::uint64_t hit = slot.hits.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t skip = slot.skip.load(std::memory_order_relaxed);
  const std::uint64_t max_fires =
      slot.max_fires.load(std::memory_order_relaxed);
  if (hit < skip || hit - skip >= max_fires) return false;
  slot.fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t FaultRegistry::param(FaultPoint point) const {
  if (!armed(point)) return 0;
  return slots_[static_cast<int>(point)].param.load(std::memory_order_relaxed);
}

std::uint64_t FaultRegistry::hits(FaultPoint point) const {
  return slots_[static_cast<int>(point)].hits.load(std::memory_order_relaxed);
}

std::uint64_t FaultRegistry::fires(FaultPoint point) const {
  return slots_[static_cast<int>(point)].fires.load(std::memory_order_relaxed);
}

bool FaultRegistry::armed(FaultPoint point) const {
  return (armed_mask_.load(std::memory_order_acquire) &
          (1u << static_cast<int>(point))) != 0;
}

Status FaultRegistry::ArmFromText(const std::string& text) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string clause = text.substr(start, comma - start);
    if (!clause.empty()) {
      FaultPoint point = FaultPoint::kAllocFail;
      FaultSpec spec;
      const Status parsed = ParseClause(clause, &point, &spec);
      if (!parsed.ok()) return parsed;
      Arm(point, spec);
    }
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return Status::OK();
}

Status FaultRegistry::ArmFromEnv() {
  const char* text = std::getenv("HIMPACT_FAULTS");
  if (text == nullptr || text[0] == '\0') return Status::OK();
  return ArmFromText(text);
}

const char* FaultRegistry::Name(FaultPoint point) {
  return kPointNames[static_cast<int>(point)];
}

std::optional<FaultPoint> FaultRegistry::FromName(const std::string& name) {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    if (name == kPointNames[i]) return static_cast<FaultPoint>(i);
  }
  return std::nullopt;
}

std::uint64_t FaultClock::NowNanos() {
  const std::uint64_t base = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  FaultRegistry& registry = FaultRegistry::Global();
  if (registry.AnyArmed() && registry.ShouldFire(FaultPoint::kClockSkew)) {
    return base + registry.param(FaultPoint::kClockSkew);
  }
  return base;
}

void SleepForMicros(std::uint64_t micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace himpact
