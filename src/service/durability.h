#ifndef HIMPACT_SERVICE_DURABILITY_H_
#define HIMPACT_SERVICE_DURABILITY_H_

#include <cstdint>
#include <string>

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
/// It runs no background work: every save happens inline on the
/// session thread. The save bounds an incremental chain itself
/// (`ServiceOptions::max_chain_len` escalates it to a full save), and
/// pending cold-tier records seal when a stripe's buffer crosses its
/// threshold or when a save serializes the stripe.

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

/// Owned by one session and driven only from its thread.
class Durability {
 public:
  Durability(HImpactService* service, const SessionOptions& options)
      : service_(service), options_(options) {}

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

  /// Takes the final auto-checkpoint so it is the newest state on
  /// disk. OK and a no-op when unarmed.
  Status FinalSave() { return armed() ? AutoSave() : Status::OK(); }

  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t checkpoint_failures() const { return checkpoint_failures_; }

 private:
  bool armed() const {
    return !options_.checkpoint.empty() && options_.checkpoint_every > 0;
  }
  /// A save to the auto-checkpoint path, counted.
  Status AutoSave();
  void NoteWalFailure(const char* what, const Status& status);

  HImpactService* service_;
  SessionOptions options_;
  WalWriter* wal_ = nullptr;
  bool wal_failure_logged_ = false;
  std::uint64_t writes_since_save_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_DURABILITY_H_
