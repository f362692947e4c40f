#ifndef HIMPACT_SERVICE_SESSION_H_
#define HIMPACT_SERVICE_SESSION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/wal.h"
#include "net/server.h"
#include "service/durability.h"
#include "service/protocol.h"
#include "service/service.h"

/// \file
/// One protocol session over `HImpactService`: the request-in/reply-out
/// dispatch that `hstream_serve` runs on stdin and the TCP front end
/// (net/server.h) runs per connection — the same code path, so both
/// transports answer byte-identically and the kill-and-resume drill's
/// determinism argument covers them together.
///
/// Requests arrive in batches (`HandleBatch`: every complete request of
/// a read pass, text lines or binary frames, net/wire.h); `HandleLine`
/// and `HandleFrame` are batches of one. A batch applies each maximal
/// run of writes (`add`/`paper`) as one `HImpactService::ApplyRun` and
/// answers every other request in place between runs, so a `get` sees
/// the writes before it. Every request produces the transport-neutral
/// `CommandResult`; only the final rendering differs — so a command
/// answers identically whichever encoding carried it (the text/binary
/// parity property, docs/PROTOCOL.md), and however its requests were
/// batched. The batch's WAL records are written out before it returns,
/// so no reply leaves ahead of its record.
///
/// The session owns the transport-independent robustness bookkeeping:
/// malformed-input quarantine (`rejected_lines` / `rejected_frames`)
/// and the `health` verb's JSON — to which a transport may contribute
/// an extra field block (the TCP server reports its
/// connection-lifecycle counters there). Applied writes go on to the
/// session's `Durability` (service/durability.h).

namespace himpact {

/// The command dispatcher. Not thread-safe: one session runs on one
/// transport thread (the stdin loop or the event loop).
class ServiceSession {
 public:
  ServiceSession(HImpactService* service, const SessionOptions& options)
      : service_(service), durability_(service, options) {}

  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// Attaches the write-ahead log (see `Durability::AttachWal`).
  void AttachWal(WalWriter* wal) { durability_.AttachWal(wal); }

  /// Handles a batch of requests, text lines (newline stripped) or
  /// binary frames (prelude + payload, as `Connection::NextFrame`
  /// extracts them): one reply each, appended to `replies` in request
  /// order (a newline-terminated block per line, a reply frame per
  /// frame; never empty — malformed requests are counted in
  /// `rejected_lines` / `rejected_frames` and answered with an error,
  /// the quarantine invariant). Runs of writes end at the checkpoint
  /// cadence, so a cadence save captures the state after the same write
  /// as one request at a time would. Stops after a `quit` (`keep`
  /// false) and before any request once `replies` holds more than
  /// `reply_room` bytes. Before returning it commits the log
  /// (`Durability::Commit`).
  BatchResult HandleBatch(bool binary, RequestBatch requests,
                          std::size_t reply_room, std::string* replies);

  /// Handles one text-protocol line, a batch of one. `reply` receives
  /// the full newline-terminated reply block. Returns false when the
  /// session must end (`quit`); the transport closes after delivering
  /// the reply.
  bool HandleLine(const std::string& line, std::string* reply);

  /// Handles one complete binary request frame, a batch of one. `reply`
  /// receives a complete reply frame (an undecodable frame gets a
  /// structured error frame). Returns false when the session must end
  /// (`quit`).
  bool HandleFrame(const std::string& frame, std::string* reply);

  /// Extra JSON fields appended inside the `health` object, preceded by
  /// a comma (e.g. the TCP server's `"net":{...}` block). Must emit
  /// `"name":value` fragments only.
  void set_extra_health_fields(std::function<std::string()> fields) {
    extra_health_fields_ = std::move(fields);
  }

  /// The graceful-drain hook (see `Durability::FinalSave`).
  Status FinalCheckpoint() { return durability_.FinalSave(); }

  /// Quarantine counters surfaced by the `health` verb: text lines and
  /// binary frames that failed to parse.
  std::uint64_t rejected_lines() const { return rejected_lines_; }
  std::uint64_t rejected_frames() const { return rejected_frames_; }

 private:
  std::string StatsJson() const;
  std::string HealthJson() const;
  /// Executes one decoded command other than a write against the
  /// service. Returns false on `quit`.
  bool HandleCommand(const Command& command, CommandResult* result);
  /// Applies `writes` (adds and papers) as one run, logs them in order,
  /// counts them toward the cadence and appends their replies.
  void ApplyWrites(std::span<const Command> writes, bool binary,
                   std::string* replies);

  HImpactService* service_;
  Durability durability_;
  /// A batch's decoded requests (a failed decode keeps its status) and a
  /// run's apply state, reused across batches.
  std::vector<Command> commands_;
  std::vector<Status> decoded_;
  std::vector<PaperTuple> add_tuples_;
  std::vector<ServiceWrite> writes_;
  std::vector<std::array<std::uint64_t, kMaxAuthorsPerPaper>> seqs_;
  std::uint64_t rejected_lines_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::function<std::string()> extra_health_fields_;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_SESSION_H_
