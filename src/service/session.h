#ifndef HIMPACT_SERVICE_SESSION_H_
#define HIMPACT_SERVICE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "engine/task_runtime.h"
#include "io/wal.h"
#include "service/protocol.h"
#include "service/service.h"

/// \file
/// One protocol session over `HImpactService`: the request-in/reply-out
/// dispatch that `hstream_serve` runs on stdin and the TCP front end
/// (net/server.h) runs per connection — the same code path, so both
/// transports answer byte-identically and the kill-and-resume drill's
/// determinism argument covers them together.
///
/// Requests arrive either as text lines (`HandleLine`) or as binary
/// frames (`HandleFrame`, net/wire.h). Both funnel into the shared
/// `HandleCommand`, which produces the transport-neutral
/// `CommandResult`; only the final rendering differs — so a command
/// answers identically whichever encoding carried it (the text/binary
/// parity property, docs/PROTOCOL.md).
///
/// The session owns the transport-independent robustness bookkeeping:
/// malformed-input quarantine (`rejected_lines` / `rejected_frames`),
/// the auto-checkpoint cadence (`--checkpoint`/`--checkpoint-every`),
/// and the `health` verb's JSON — to which a transport may contribute
/// an extra field block (the TCP server reports its
/// connection-lifecycle counters there).
///
/// With a WAL attached (`AttachWal`), the session is also the
/// durability sequencer: every applied mutation is appended to the log
/// *before* the checkpoint cadence runs, and every successful save to
/// the auto-checkpoint path rotates the log — so at any instant the
/// checkpoint plus the surviving WAL segments cover the full applied
/// history (the invariant `ReplayWal` recovery rests on). The session
/// is also the submitter of the background maintenance jobs, which run
/// on the shared FIFO task runtime (engine/task_runtime.h) rather than
/// ad-hoc threads:
///
///   - `kDeltaCollapse`: once the incremental chain reaches half of
///     `ServiceOptions::max_chain_len`, a job folds it into a fresh
///     full save while the session keeps serving (cadence saves are
///     deferred, not blocked, while it runs);
///   - `kTierDemotion`: halfway through each checkpoint cadence, a job
///     seals pending cold-tier demotion records so the checkpoint's
///     inline flush finds less I/O to do.

namespace himpact {

/// Auto-checkpoint configuration for a session. Both fields must be
/// set together or not at all (`hstream_serve` rejects half-armed
/// combinations at flag parsing).
struct SessionOptions {
  std::string checkpoint;              // empty -> no automatic checkpoints
  std::uint64_t checkpoint_every = 0;  // mutations per auto-checkpoint
  /// How auto-checkpoints write: `kIncremental` extends the delta chain
  /// at `checkpoint` (each cadence tick rewrites only dirty stripes;
  /// the first save roots the chain with a full write). The final
  /// drain checkpoint honors the same mode.
  SaveMode checkpoint_mode = SaveMode::kFull;
};

/// Quarantine and checkpoint counters surfaced by the `health` verb.
struct SessionCounters {
  std::uint64_t rejected_lines = 0;
  std::uint64_t rejected_frames = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  /// Cadence checkpoints deferred because a background chain collapse
  /// held the checkpoint operation lock (retried on the next mutation).
  std::uint64_t checkpoints_deferred = 0;
};

/// The command dispatcher. Not thread-safe: one session runs on one
/// transport thread (the stdin loop or the event loop). The background
/// maintenance jobs it may submit touch only the thread-safe
/// `HImpactService` checkpoint/flush surface and the session's atomic
/// counters.
class ServiceSession {
 public:
  ServiceSession(HImpactService* service, const SessionOptions& options)
      : service_(service), options_(options) {}

  /// Waits for any in-flight background maintenance jobs.
  ~ServiceSession();

  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// Attaches the write-ahead log. Not owned; the caller keeps `wal`
  /// alive for the session's lifetime. Applied mutations are appended
  /// before the checkpoint cadence runs; successful saves to the
  /// auto-checkpoint path rotate the log.
  void AttachWal(WalWriter* wal) { wal_ = wal; }

  /// Handles one text-protocol line. `reply` receives the full
  /// newline-terminated reply block (never empty — one reply per line,
  /// the quarantine invariant). Returns false when the session must end
  /// (`quit`); the transport closes after delivering the reply.
  bool HandleLine(const std::string& line, std::string* reply);

  /// Handles one complete binary request frame (prelude + payload, as
  /// extracted by `Connection::NextFrame`). `reply` receives a complete
  /// reply frame (never empty — one reply frame per request frame, the
  /// same quarantine invariant as the text path: undecodable frames are
  /// counted in `rejected_frames` and answered with a structured error
  /// frame). Returns false when the session must end (`quit`).
  bool HandleFrame(const std::string& frame, std::string* reply);

  /// Executes one decoded command against the service — the shared core
  /// of `HandleLine` and `HandleFrame`, and the step the text/binary
  /// parity tests drive directly. Returns false on `quit`.
  bool HandleCommand(const Command& command, CommandResult* result);

  /// Extra JSON fields appended inside the `health` object, preceded by
  /// a comma (e.g. the TCP server's `"net":{...}` block). Must emit
  /// `"name":value` fragments only.
  void set_extra_health_fields(std::function<std::string()> fields) {
    extra_health_fields_ = std::move(fields);
  }

  /// Writes a final checkpoint if auto-checkpointing is armed (the
  /// graceful-drain hook). Joins any in-flight chain collapse first so
  /// the final save is the newest state on disk, and rotates the WAL on
  /// success. OK and a no-op when unarmed.
  Status FinalCheckpoint();

  const SessionCounters& counters() const { return counters_; }

 private:
  void MaybeCheckpoint();
  /// Appends one applied mutation to the WAL (no-op without one).
  void AppendWal(const Command& command);
  /// Rotates the WAL after a successful save covering it (no-op
  /// without one); failures are logged, never surfaced to replies.
  void RotateWal();
  /// Submits the background chain collapse (`kDeltaCollapse`) when the
  /// incremental chain has grown to half of `max_chain_len` and none is
  /// in flight.
  void MaybeCollapseChain();
  /// Submits the background cold-tier seal flush (`kTierDemotion`)
  /// halfway through the checkpoint cadence when paging is enabled and
  /// none is in flight.
  void MaybeFlushColdTier();
  void WaitForMaintenance();
  std::string StatsJson() const;
  std::string HealthJson() const;

  HImpactService* service_;
  SessionOptions options_;
  SessionCounters counters_;
  std::uint64_t mutations_since_checkpoint_ = 0;
  std::function<std::string()> extra_health_fields_;
  WalWriter* wal_ = nullptr;
  bool wal_failure_logged_ = false;
  /// Background maintenance jobs (see file comment), submitted to the
  /// shared task runtime. The `running` flags gate one job of each
  /// class in flight; the handles let teardown and `FinalCheckpoint`
  /// wait for completion.
  TaskHandle collapse_handle_;
  TaskHandle flush_handle_;
  std::atomic<bool> collapse_running_{false};
  std::atomic<bool> flush_running_{false};
  std::atomic<std::uint64_t> chain_collapses_{0};
  std::atomic<std::uint64_t> chain_collapse_failures_{0};
  std::atomic<std::uint64_t> coldtier_flushes_{0};
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_SESSION_H_
