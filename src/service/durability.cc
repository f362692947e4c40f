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
  ++writes_since_save_;
  MaybeFlushColdTier();
  if (writes_since_save_ < options_.checkpoint_every) return;
  if (!collapse_job_.done()) {
    // A background collapse holds the checkpoint operation lock;
    // blocking the serving thread on it would stall replies. Leave the
    // cadence counter ripe so the save retries on the next write — the
    // WAL (when attached) keeps covering the gap meanwhile.
    ++checkpoints_deferred_;
    return;
  }
  writes_since_save_ = 0;
  const Status saved = AutoSave();
  if (saved.ok()) {
    MaybeCollapseChain();
  } else {
    // Failures go to stderr (and a counter), never the reply stream:
    // replies must stay deterministic for the kill-and-resume drill.
    std::fprintf(stderr, "auto-checkpoint failed: %s\n",
                 saved.message().c_str());
  }
}

Status Durability::Save(const std::string& path, SaveMode mode) {
  const Status saved = service_->CheckpointTo(path, mode);
  // Every record appended so far preceded this save, so a save that
  // landed where a restart restores from covers the whole log. A side
  // save to another path does not.
  if (saved.ok() && wal_ != nullptr && path == options_.checkpoint) {
    NoteWalFailure("rotation", wal_->Rotate());
  }
  return saved;
}

Status Durability::AutoSave() {
  const Status saved = Save(options_.checkpoint, options_.checkpoint_mode);
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

void Durability::MaybeCollapseChain() {
  const std::uint64_t max_chain = service_->options().max_chain_len;
  if (options_.checkpoint_mode != SaveMode::kIncremental) return;
  if (max_chain == 0) return;
  // Fire at half the cap so the background fold normally lands well
  // before the inline escalation in CheckpointIncremental (the
  // unconditional backstop) would ever trigger.
  if (service_->chain_generation() < (max_chain + 1) / 2) return;
  // No collapse is in flight: the cadence saved only after finding none.
  collapse_job_ = TaskRuntime::Shared().Submit(
      JobClass::kDeltaCollapse, [this, path = options_.checkpoint] {
        const Status folded = service_->CheckpointTo(path, SaveMode::kFull);
        if (folded.ok()) {
          chain_collapses_.fetch_add(1, std::memory_order_relaxed);
        } else {
          chain_collapse_failures_.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "background chain collapse failed: %s\n",
                       folded.message().c_str());
        }
      });
}

void Durability::MaybeFlushColdTier() {
  if (options_.checkpoint_every < 2) return;
  if (service_->options().segment_dir.empty()) return;
  // Fire once per cadence, at the halfway point: far enough from the
  // last save for demotions to have accumulated, early enough that the
  // seal normally lands before the next checkpoint's inline flush.
  if (writes_since_save_ != options_.checkpoint_every / 2) return;
  if (!flush_job_.done()) return;
  flush_job_ = TaskRuntime::Shared().Submit(JobClass::kTierDemotion, [this] {
    if (service_->FlushColdTier() > 0) {
      coldtier_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

}  // namespace himpact
