#ifndef HIMPACT_SERVICE_DURABILITY_H_
#define HIMPACT_SERVICE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "engine/task_runtime.h"
#include "io/wal.h"
#include "service/protocol.h"
#include "service/service.h"

/// \file
/// The durability sequencer behind a `ServiceSession`: it keeps the
/// checkpoint plus the surviving WAL segments covering the full applied
/// history at every instant (the invariant `ReplayWal` recovery rests
/// on). Every applied write is appended to the attached log *before*
/// the checkpoint cadence runs, and `Save` is the one place a save is
/// followed by a rotation: only a save that landed on the
/// auto-checkpoint path rotates the log.
///
/// It also submits the background maintenance jobs, which run on the
/// shared FIFO task runtime (engine/task_runtime.h), not ad-hoc threads:
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

/// Owned by one session and driven from its thread. The jobs it submits
/// touch only the thread-safe `HImpactService` checkpoint/flush surface
/// and the atomic job counters.
class Durability {
 public:
  Durability(HImpactService* service, const SessionOptions& options)
      : service_(service), options_(options) {}

  /// Waits for any in-flight background job.
  ~Durability() { WaitForJobs(); }

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  /// Not owned; the caller keeps `wal` alive for this object's lifetime.
  void AttachWal(WalWriter* wal) { wal_ = wal; }
  const WalWriter* wal() const { return wal_; }

  /// Logs one applied write (an `add` or `paper`), then runs the
  /// auto-checkpoint cadence.
  void Record(const Command& command);

  /// Saves the service to `path`; on success rotates the WAL when
  /// `path` is the auto-checkpoint path.
  Status Save(const std::string& path, SaveMode mode);

  /// Joins the background jobs, then takes the final auto-checkpoint so
  /// it is the newest state on disk. OK and a no-op when unarmed.
  Status FinalSave() {
    WaitForJobs();
    return armed() ? AutoSave() : Status::OK();
  }

  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t checkpoint_failures() const { return checkpoint_failures_; }
  /// Cadence saves deferred because a background chain collapse held
  /// the checkpoint operation lock (retried on the next write).
  std::uint64_t checkpoints_deferred() const { return checkpoints_deferred_; }
  std::uint64_t chain_collapses() const { return chain_collapses_.load(); }
  std::uint64_t chain_collapse_failures() const {
    return chain_collapse_failures_.load();
  }
  std::uint64_t coldtier_flushes() const { return coldtier_flushes_.load(); }

 private:
  bool armed() const {
    return !options_.checkpoint.empty() && options_.checkpoint_every > 0;
  }
  /// A save to the auto-checkpoint path, counted.
  Status AutoSave();
  void NoteWalFailure(const char* what, const Status& status);
  void MaybeCollapseChain();
  void MaybeFlushColdTier();
  void WaitForJobs() { collapse_job_.Wait(); flush_job_.Wait(); }

  HImpactService* service_;
  SessionOptions options_;
  WalWriter* wal_ = nullptr;
  bool wal_failure_logged_ = false;
  std::uint64_t writes_since_save_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
  std::uint64_t checkpoints_deferred_ = 0;
  /// One job of each class in flight at most; an empty handle is done.
  TaskHandle collapse_job_;
  TaskHandle flush_job_;
  std::atomic<std::uint64_t> chain_collapses_{0};
  std::atomic<std::uint64_t> chain_collapse_failures_{0};
  std::atomic<std::uint64_t> coldtier_flushes_{0};
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_DURABILITY_H_
