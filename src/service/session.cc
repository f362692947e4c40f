#include "service/session.h"

#include <array>

#include "engine/task_runtime.h"
#include "net/wire.h"

namespace himpact {
namespace {

std::string U64(std::uint64_t value) {
  return std::to_string(static_cast<unsigned long long>(value));
}

/// Copies a non-OK status into a result.
void SetError(const Status& status, CommandResult* result) {
  result->code = status.code();
  result->message = status.message();
}

}  // namespace

std::string ServiceSession::StatsJson() const {
  const ServiceStats stats = service_->Stats();
  const RegistryStats& r = stats.registry;
  std::string json = "{\"events\":" + U64(r.total_events);
  json += ",\"users\":" + U64(r.num_users);
  json += ",\"cold\":" + U64(r.cold_users);
  json += ",\"hot\":" + U64(r.hot_users);
  json += ",\"frozen\":" + U64(r.frozen_users);
  json += ",\"segment\":" + U64(r.segment_users);
  json += ",\"promotions\":" + U64(r.promotions);
  json += ",\"demotions\":" + U64(r.demotions);
  json += ",\"resident_bytes\":" + U64(r.resident_bytes);
  json += ",\"budget_bytes\":" + U64(r.budget_bytes);
  json += ",\"hh_papers\":" + U64(stats.hh_papers);
  json += ",\"hh_report_cache_hits\":" + U64(stats.hh_report_cache_hits);
  json += ",\"hh_report_cache_misses\":" + U64(stats.hh_report_cache_misses);
  // WAL writer counters ride along for operators sampling STATS; they
  // are runtime-dependent (unlike the state fields above), so twin
  // comparisons must key on "events", not the whole line.
  if (const WalWriter* wal = durability_.wal()) {
    json += ",\"wal_records\":" + U64(wal->counters().records);
    json += ",\"wal_bytes\":" + U64(wal->counters().bytes);
    json += ",\"wal_degraded\":";
    json += wal->degraded() ? "1" : "0";
  }
  json += "}";
  return json;
}

std::string ServiceSession::HealthJson() const {
  const ServiceStats stats = service_->Stats();
  const RegistryStats& r = stats.registry;
  const CheckpointCounters& c = stats.checkpoint;
  const Durability& d = durability_;
  std::string json = "{\"deadline_exceeded\":" + U64(stats.deadline_exceeded);
  json += ",\"rejected_lines\":" + U64(rejected_lines_);
  json += ",\"rejected_frames\":" + U64(rejected_frames_);
  json += ",\"alloc_failures\":" + U64(r.alloc_failures);
  json += ",\"checkpoints\":" + U64(d.checkpoints());
  json += ",\"checkpoint_failures\":" + U64(d.checkpoint_failures());
  // The cold-tier runtime counters live here, not in `stats`: `stats`
  // stays a pure function of restored state (the byte-identity property
  // the drill leans on) while page-in traffic is runtime-dependent.
  json += ",\"segment_files\":" + U64(r.segment_files);
  json += ",\"segment_bytes\":" + U64(r.segment_bytes);
  json += ",\"segment_pending\":" + U64(r.segment_pending_records);
  json += ",\"segment_seals\":" + U64(r.segment_seals);
  json += ",\"page_ins\":" + U64(r.page_ins);
  json += ",\"page_in_cache_hits\":" + U64(r.page_in_cache_hits);
  json += ",\"page_in_failures\":" + U64(r.page_in_failures);
  json += ",\"full_saves\":" + U64(c.full_saves);
  // Shared task runtime counters (process-wide: the shard set and WAL
  // replay submit to it). `completed` keeps its one-key object shape,
  // which existing readers index by name.
  json += ",\"task_runtime\":{\"workers\":" +
          U64(TaskRuntime::Shared().num_workers());
  json += ",\"completed\":{\"generic\":" +
          U64(TaskRuntime::Shared().Stats().completed) + "}}";
  // Cold-tier space accounting (the compaction signal): live sealed
  // bytes vs bytes superseded by newer generations or forgotten.
  json += ",\"storage\":{\"live_bytes\":" + U64(r.segment_bytes);
  json += ",\"dead_bytes\":" + U64(r.segment_dead_bytes);
  json += "}";
  if (const WalWriter* wal = d.wal()) {
    const WalCounters& w = wal->counters();
    json += ",\"wal\":{\"enabled\":true";
    json += ",\"degraded\":";
    json += wal->degraded() ? "true" : "false";
    json += ",\"fsync\":\"";
    json += WalFsyncName(wal->options().fsync);
    json += "\"";
    json += ",\"records\":" + U64(w.records);
    json += ",\"bytes\":" + U64(w.bytes);
    json += ",\"flushes\":" + U64(w.flushes);
    json += ",\"fsyncs\":" + U64(w.fsyncs);
    json += ",\"rotations\":" + U64(w.rotations);
    json += ",\"append_failures\":" + U64(w.append_failures);
    json += ",\"segment_seq\":" + U64(wal->segment_seq());
    json += "}";
  } else {
    json += ",\"wal\":{\"enabled\":false}";
  }
  if (extra_health_fields_) {
    json += ",";
    json += extra_health_fields_();
  }
  json += "}";
  return json;
}

bool ServiceSession::HandleCommand(const Command& command,
                                   CommandResult* result) {
  *result = CommandResult{};
  result->kind = command.kind;
  // A write cannot fail once parsed: it is applied, then logged and
  // counted toward the checkpoint cadence before the reply.
  switch (command.kind) {
    case CommandKind::kAdd: {
      std::uint64_t stripe_seq = 0;
      result->estimate = service_->RecordResponseCount(
          command.user, command.value, &stripe_seq);
      durability_.Record(command, {&stripe_seq, 1});
      return true;
    }
    case CommandKind::kPaper: {
      std::array<std::uint64_t, kMaxAuthorsPerPaper> stripe_seqs{};
      service_->ApplyPaper(command.paper, ~std::uint32_t{0},
                           /*feed_grid=*/true, stripe_seqs.data());
      result->num_authors =
          static_cast<std::uint32_t>(command.paper.authors.size());
      durability_.Record(command, stripe_seqs);
      return true;
    }
    case CommandKind::kGet: {
      result->user = command.user;
      UserSnapshot snapshot;
      if (service_->Lookup(command.user, &snapshot)) {
        result->estimate = snapshot.estimate;
        result->tier = static_cast<int>(snapshot.tier);
        result->events = snapshot.events;
      }
      // Unseen users keep the defaults: estimate 0, kTierNone, 0 events.
      return true;
    }
    case CommandKind::kTop: {
      const std::size_t k = static_cast<std::size_t>(command.value);
      if (k > service_->options().leaderboard_capacity) {
        SetError(Status::InvalidArgument(
                     "k exceeds leaderboard capacity (" +
                     std::to_string(service_->options().leaderboard_capacity) +
                     ")"),
                 result);
        return true;
      }
      const StatusOr<TopKResult> top = service_->TryTopK(k);
      // A deadline-degraded scan carries stripes_skipped > 0 (rendered
      // TOP-LB on the text wire): the entries are a valid lower-bound
      // board over the stripes that answered in time.
      result->stripes_skipped = top.value().stripes_skipped;
      result->entries.reserve(top.value().entries.size());
      for (const LeaderboardEntry& entry : top.value().entries) {
        result->entries.emplace_back(entry.user, entry.estimate);
      }
      return true;
    }
    case CommandKind::kHeavy: {
      for (const HeavyHitterReport& report : service_->HeavyReport()) {
        result->entries.emplace_back(report.author, report.h_estimate);
      }
      return true;
    }
    case CommandKind::kStats:
      result->text = StatsJson();
      return true;
    case CommandKind::kHealth:
      result->text = HealthJson();
      return true;
    case CommandKind::kSave: {
      const Status saved = durability_.Save(command.path);
      if (saved.ok()) {
        result->text = command.path;
      } else {
        SetError(Status::InvalidArgument(saved.message()), result);
      }
      return true;
    }
    case CommandKind::kQuit:
      return false;
    case CommandKind::kInvalid:
      break;
  }
  SetError(Status::Internal("unreachable"), result);
  return true;
}

bool ServiceSession::HandleLine(const std::string& line, std::string* reply) {
  StatusOr<Command> parsed = ParseCommandLine(line);
  if (!parsed.ok()) {
    // Quarantine, never abort: the bad line is counted and dropped, and
    // the loop keeps its one-reply-per-line invariant.
    ++rejected_lines_;
    *reply = "ERR " + parsed.status().message() + "\n";
    return true;
  }
  CommandResult result;
  const bool keep_going = HandleCommand(parsed.value(), &result);
  *reply = FormatTextReply(result);
  return keep_going;
}

bool ServiceSession::HandleFrame(const std::string& frame,
                                 std::string* reply) {
  StatusOr<Command> decoded = DecodeRequestFrame(frame);
  if (!decoded.ok()) {
    // Same quarantine contract as the text path, rendered as a
    // structured error frame (status kErr, opcode 0x00).
    ++rejected_frames_;
    *reply = EncodeErrorFrame(decoded.status().message());
    return true;
  }
  CommandResult result;
  const bool keep_going = HandleCommand(decoded.value(), &result);
  *reply = EncodeReplyFrame(result);
  return keep_going;
}

}  // namespace himpact
