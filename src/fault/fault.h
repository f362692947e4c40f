#ifndef HIMPACT_FAULT_FAULT_H_
#define HIMPACT_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

/// \file
/// Process-wide runtime fault injection registry.
///
/// Production code compiles permanent, named injection points into its
/// hot paths (`FaultRegistry::ShouldFire`); tests, the stall-recovery
/// bench, and operators arm them — programmatically or through the
/// `HIMPACT_FAULTS` environment variable — to force the failure modes
/// the fault-tolerance layer must survive: allocation failure, torn
/// checkpoint writes, stalled stripe owners, clock skew, and the network,
/// segment and WAL failures listed below. Every probe is hit-counted
/// whether or not it fires, so a test can assert both "the fault was
/// reached" and "the fault fired exactly N times". See docs/ROBUSTNESS.md for the catalogue and the
/// guarantees each point is paired with.
///
/// Cost when nothing is armed: one relaxed atomic load of a bitmask per
/// probe (the per-point hit counters are only touched once the point is
/// armed), so the hooks are safe to leave in release hot paths.
///
/// Env syntax (comma-separated, one clause per point):
///
///   HIMPACT_FAULTS="<point>[:<skip>[:<max_fires>[:<param>]]],..."
///
/// e.g. `torn-checkpoint:0:1` fires the first write only, and
/// `worker-stall:100:2:500000` stalls the 101st and 102nd probes for
/// 500000 microseconds each. Omitted fields default to skip=0,
/// max_fires=unlimited, param=0.

namespace himpact {

/// The compiled-in injection points.
enum class FaultPoint : int {
  /// A state allocation (per-user sketch promotion) fails; the owner
  /// must degrade, not crash. Param: unused.
  kAllocFail = 0,
  /// A checkpoint file write tears mid-stream: half the bytes land in
  /// the temporary file and the write reports `kInternal`. Param: unused.
  kTornCheckpoint = 1,
  /// A stripe owner (service) stalls under its stripe lock. Param:
  /// stall duration in microseconds.
  kWorkerStall = 2,
  /// `FaultClock::NowNanos` jumps forward. Param: skew in nanoseconds.
  kClockSkew = 3,
  /// The TCP front end's `accept()` reports a transient failure
  /// (EMFILE-style): the accept batch is abandoned for this wakeup and
  /// the listener must stay registered. Param: unused.
  kNetAcceptFail = 4,
  /// A connection `write()` is clamped to one byte, forcing the
  /// partial-write continuation path (buffered remainder + EPOLLOUT
  /// re-arm). Param: unused.
  kNetPartialWrite = 5,
  /// A segment-store mmap or block page-in fails; a cold `get` must
  /// degrade to the frozen-floor answer, never crash. Param: unused.
  kSegmentMapFail = 6,
  /// A write-ahead-log append fails at the disk layer. The WAL must
  /// degrade to checkpoint-only durability — keep serving, flag the
  /// loss of the log in `health` — never drop writes silently or
  /// crash. Param: unused.
  kWalAppendFail = 7,
  /// A write-ahead-log append lands only the first half of the framed
  /// record on disk (the classic power-cut torn tail) and then degrades
  /// like `kWalAppendFail`; the reopening scanner must repair the tail
  /// and replay every record before it. Param: unused.
  kWalTornTail = 8,
};

/// Number of fault points (array sizing).
inline constexpr int kNumFaultPoints = 9;

/// When an armed point fires: probes `skip..skip+max_fires-1` (0-based
/// hit indices counted from arming) fire, the rest pass through.
struct FaultSpec {
  std::uint64_t skip = 0;
  std::uint64_t max_fires = ~0ull;
  std::uint64_t param = 0;
};

/// The process-wide registry of armed faults and probe counters.
///
/// Thread-safe: probes are lock-free; arming/disarming uses release
/// stores so a probe observes a fully written spec. Arming is expected
/// to happen at startup or between test phases, not concurrently with
/// itself.
class FaultRegistry {
 public:
  /// The process-wide instance every compiled-in probe consults.
  static FaultRegistry& Global();

  /// Arms `point` with `spec`, resetting its hit/fire counters.
  void Arm(FaultPoint point, const FaultSpec& spec);

  /// Disarms `point` (probes pass through; counters keep their values).
  void Disarm(FaultPoint point);

  /// Disarms every point and zeroes all counters.
  void Reset();

  /// True iff any point is armed (the one-load fast path).
  bool AnyArmed() const {
    return armed_mask_.load(std::memory_order_relaxed) != 0;
  }

  /// The probe: counts a hit against `point` and returns true iff the
  /// point is armed and this hit falls inside the spec's fire window.
  bool ShouldFire(FaultPoint point) {
    if (!AnyArmed()) return false;
    return ShouldFireSlow(point);
  }

  /// The armed spec's param (0 when the point is not armed).
  std::uint64_t param(FaultPoint point) const;

  /// Probes observed at `point` since it was last armed (or `Reset`).
  std::uint64_t hits(FaultPoint point) const;

  /// Probes at `point` that actually fired.
  std::uint64_t fires(FaultPoint point) const;

  /// True iff `point` is currently armed.
  bool armed(FaultPoint point) const;

  /// Parses and arms a `HIMPACT_FAULTS`-syntax clause list (see file
  /// comment). `kInvalidArgument` names the offending clause; points
  /// armed before the bad clause stay armed.
  Status ArmFromText(const std::string& text);

  /// Reads the `HIMPACT_FAULTS` environment variable and arms it via
  /// `ArmFromText`; OK (and a no-op) when the variable is unset/empty.
  Status ArmFromEnv();

  /// The canonical name of `point` ("alloc-fail", "torn-checkpoint",
  /// "worker-stall", "clock-skew", "net-accept-fail",
  /// "net-partial-write", "segment-map-fail", "wal-append-fail",
  /// "wal-torn-tail").
  static const char* Name(FaultPoint point);

  /// Parses a canonical point name.
  static std::optional<FaultPoint> FromName(const std::string& name);

 private:
  struct Slot {
    std::atomic<std::uint64_t> skip{0};
    std::atomic<std::uint64_t> max_fires{0};
    std::atomic<std::uint64_t> param{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };

  bool ShouldFireSlow(FaultPoint point);

  std::atomic<std::uint32_t> armed_mask_{0};
  Slot slots_[kNumFaultPoints];
};

/// The time source for watchdogs, deadlines, and backoff: the steady
/// clock plus whatever skew the `kClockSkew` fault injects. All
/// fault-tolerance timing reads this clock so skew faults exercise
/// every timeout path at once.
struct FaultClock {
  /// Monotone now, in nanoseconds (plus injected skew when armed).
  static std::uint64_t NowNanos();
};

/// Sleeps the calling thread for `micros` microseconds (the stall
/// primitive used by `kWorkerStall` hooks).
void SleepForMicros(std::uint64_t micros);

}  // namespace himpact

#endif  // HIMPACT_FAULT_FAULT_H_
