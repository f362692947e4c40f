#include "service/durability.h"

#include <cstdio>

#include "service/wal_apply.h"

namespace himpact {

void Durability::Record(const Command& command) {
  if (wal_ != nullptr && !wal_->degraded()) {
    NoteWalFailure("append",
                   command.kind == CommandKind::kAdd
                       ? AppendWalAdd(wal_, *service_, command.user,
                                      command.value)
                       : AppendWalPaper(wal_, *service_, command.paper));
  }
  if (!armed()) return;
  if (++writes_since_save_ < options_.checkpoint_every) return;
  writes_since_save_ = 0;
  const Status saved = AutoSave();
  if (!saved.ok()) {
    // Failures go to stderr (and a counter), never the reply stream:
    // replies must stay deterministic for the kill-and-resume drill.
    std::fprintf(stderr, "auto-checkpoint failed: %s\n",
                 saved.message().c_str());
  }
}

Status Durability::Save(const std::string& path) {
  const Status saved = service_->CheckpointTo(path);
  // Every record appended so far preceded this save, so a save that
  // landed where a restart restores from covers the whole log. A side
  // save to another path does not.
  if (saved.ok() && wal_ != nullptr && path == options_.checkpoint) {
    NoteWalFailure("rotation", wal_->Rotate());
  }
  return saved;
}

Status Durability::AutoSave() {
  const Status saved = Save(options_.checkpoint);
  ++(saved.ok() ? checkpoints_ : checkpoint_failures_);
  return saved;
}

void Durability::NoteWalFailure(const char* what, const Status& status) {
  if (status.ok() || wal_failure_logged_) return;
  // Loud once, then the degraded flag in `health` carries the state:
  // the server keeps serving on checkpoint-only durability.
  wal_failure_logged_ = true;
  std::fprintf(stderr,
               "WAL %s failed; durability degraded to checkpoint-only: %s\n",
               what, status.message().c_str());
}

}  // namespace himpact
