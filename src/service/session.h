#ifndef HIMPACT_SERVICE_SESSION_H_
#define HIMPACT_SERVICE_SESSION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "io/wal.h"
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
/// Requests arrive either as text lines (`HandleLine`) or as binary
/// frames (`HandleFrame`, net/wire.h). Both funnel into the shared
/// `HandleCommand`, which produces the transport-neutral
/// `CommandResult`; only the final rendering differs — so a command
/// answers identically whichever encoding carried it (the text/binary
/// parity property, docs/PROTOCOL.md).
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

  /// The graceful-drain hook (see `Durability::FinalSave`).
  Status FinalCheckpoint() { return durability_.FinalSave(); }

  /// Quarantine counters surfaced by the `health` verb: text lines and
  /// binary frames that failed to parse.
  std::uint64_t rejected_lines() const { return rejected_lines_; }
  std::uint64_t rejected_frames() const { return rejected_frames_; }

 private:
  std::string StatsJson() const;
  std::string HealthJson() const;

  HImpactService* service_;
  Durability durability_;
  std::uint64_t rejected_lines_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::function<std::string()> extra_health_fields_;
};

}  // namespace himpact

#endif  // HIMPACT_SERVICE_SESSION_H_
