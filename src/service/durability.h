#ifndef HIMPACT_SERVICE_DURABILITY_H_
#define HIMPACT_SERVICE_DURABILITY_H_

#include <cstdint>
#include <span>
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
/// auto-checkpoint path rotates the log. The session calls `Commit`
/// after each batch, before its replies leave, so an acknowledged write
/// is in the file (and under `group` on the disk).
///
/// It runs no background work: every save is a full save, inline on
/// the session thread, and pending cold-tier records seal when a
/// stripe's buffer crosses its threshold or when a save serializes the
/// stripe.

namespace himpact {

/// Auto-checkpoint configuration for a session. Both fields must be
/// set together or not at all (`hstream_serve` rejects half-armed
/// combinations at flag parsing).
struct SessionOptions {
  std::string checkpoint;              // empty -> no automatic checkpoints
  std::uint64_t checkpoint_every = 0;  // mutations per auto-checkpoint
  /// Read by nothing in `src/`; goes with the next perfbench change
  /// (ROADMAP item 6).
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

  /// Logs one applied write (an `add` or `paper`) with the post-apply
  /// stripe sequences its apply reported (one per author; an add has
  /// one), then runs the auto-checkpoint cadence.
  void Record(const Command& command,
              std::span<const std::uint64_t> stripe_seqs);

  /// Writes out the log's open group: `write` under `never`,
  /// `write`+`fsync` under `group` (`always` keeps none). A failure
  /// degrades the log like a failed append.
  void Commit();

  /// Writes left before the cadence runs a save: at least 1, and the
  /// largest value when unarmed. A session ends its write runs there,
  /// so a cadence save captures the state after exactly that write.
  std::uint64_t WritesUntilSave() const {
    return armed() ? options_.checkpoint_every - writes_since_save_
                   : ~std::uint64_t{0};
  }

  /// Saves the service to `path`; on success rotates the WAL when
  /// `path` is the auto-checkpoint path.
  Status Save(const std::string& path);

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
