#include "service/session.h"

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

/// Appends `result` to `replies` in the batch's wire encoding.
void AppendReply(bool binary, const CommandResult& result,
                 std::string* replies) {
  replies->append(binary ? EncodeReplyFrame(result) : FormatTextReply(result));
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
  switch (command.kind) {
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
    case CommandKind::kAdd:
    case CommandKind::kPaper:
    case CommandKind::kInvalid:
      break;
  }
  SetError(Status::Internal("unreachable"), result);
  return true;
}

void ServiceSession::ApplyWrites(std::span<const Command> writes,
                                 bool binary, std::string* replies) {
  const std::size_t n = writes.size();
  add_tuples_.resize(n);
  seqs_.resize(n);
  writes_.assign(n, ServiceWrite{});
  for (std::size_t k = 0; k < n; ++k) {
    const Command& command = writes[k];
    ServiceWrite& write = writes_[k];
    write.stripe_seqs = seqs_[k].data();
    if (command.kind == CommandKind::kAdd) {
      PaperTuple& tuple = add_tuples_[k];
      tuple.authors = AuthorList{command.user};
      tuple.citations = command.value;
      write.paper = &tuple;
      write.add = true;
    } else {
      write.paper = &command.paper;
    }
  }
  service_->ApplyRun(writes_);
  // A write cannot fail once parsed: each is logged and counted toward
  // the checkpoint cadence in request order, then answered.
  CommandResult result;
  for (std::size_t k = 0; k < n; ++k) {
    const Command& command = writes[k];
    const bool add = command.kind == CommandKind::kAdd;
    const int authors = add ? 1 : command.paper.authors.size();
    durability_.Record(command, std::span<const std::uint64_t>(seqs_[k]).first(
                                    static_cast<std::size_t>(authors)));
    result.kind = command.kind;
    result.estimate = add ? writes_[k].estimate : 0.0;
    result.num_authors = add ? 0 : static_cast<std::uint32_t>(authors);
    AppendReply(binary, result, replies);
  }
}

BatchResult ServiceSession::HandleBatch(bool binary, RequestBatch requests,
                                        std::size_t reply_room,
                                        std::string* replies) {
  const std::size_t n = requests.size();
  commands_.resize(n);
  decoded_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    StatusOr<Command> command = binary ? DecodeRequestFrame(requests[i])
                                       : ParseCommandLine(requests[i]);
    decoded_[i] = command.status();
    if (command.ok()) commands_[i] = std::move(command).value();
  }
  const auto is_write = [this](std::size_t i) {
    return decoded_[i].ok() && (commands_[i].kind == CommandKind::kAdd ||
                                commands_[i].kind == CommandKind::kPaper);
  };
  BatchResult batch;
  CommandResult result;
  while (batch.handled < n && replies->size() <= reply_room) {
    const std::size_t i = batch.handled;
    if (is_write(i)) {
      // A maximal run of writes, cut at the checkpoint cadence.
      const std::uint64_t limit = durability_.WritesUntilSave();
      std::size_t end = i + 1;
      while (end < n && end - i < limit && is_write(end)) ++end;
      ApplyWrites(std::span<const Command>(commands_).subspan(i, end - i),
                  binary, replies);
      batch.handled = end;
      continue;
    }
    ++batch.handled;
    if (!decoded_[i].ok()) {
      // Quarantine, never abort: the bad request is counted and
      // answered, and the batch keeps its one-reply-per-request
      // invariant.
      if (binary) {
        ++rejected_frames_;
        replies->append(EncodeErrorFrame(decoded_[i].message()));
      } else {
        ++rejected_lines_;
        replies->append("ERR " + decoded_[i].message() + "\n");
      }
      continue;
    }
    batch.keep = HandleCommand(commands_[i], &result);
    AppendReply(binary, result, replies);
    if (!batch.keep) break;
  }
  durability_.Commit();
  return batch;
}

bool ServiceSession::HandleLine(const std::string& line, std::string* reply) {
  reply->clear();
  const std::string_view request(line);
  return HandleBatch(/*binary=*/false, {&request, 1}, reply->max_size(), reply)
      .keep;
}

bool ServiceSession::HandleFrame(const std::string& frame,
                                 std::string* reply) {
  reply->clear();
  const std::string_view request(frame);
  return HandleBatch(/*binary=*/true, {&request, 1}, reply->max_size(), reply)
      .keep;
}

}  // namespace himpact
