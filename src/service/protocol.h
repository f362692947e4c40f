#ifndef HIMPACT_SERVICE_PROTOCOL_H_
#define HIMPACT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/types.h"

/// \file
/// The `hstream_serve` line protocol: one command per line on stdin,
/// one reply per line on stdout.
///
///   add <user> <value>      -> OK <estimate>
///   paper <id> <citations> <author>[,<author>...]
///                           -> OK <num_authors>
///   get <user>              -> H <user> <estimate> <tier> <events>
///   top <k>                 -> TOP <user>:<estimate> ...
///   heavy                   -> HEAVY <user>:<estimate> ...
///   stats                   -> STATS {<json>}
///   health                  -> HEALTH {<json>}
///   save <path>             -> OK saved <path>
///   quit                    -> BYE
///
/// `save` writes a full checkpoint (docs/CHECKPOINTS.md).
///
/// A parsed command always succeeds. Under overload (docs/ROBUSTNESS.md)
/// a TCP server past its connection cap sheds a newcomer with one
/// `RESOURCE_EXHAUSTED shed` line at accept, and a `top` that ran out
/// of its deadline answers `TOP-LB` instead of `TOP`; both are counted,
/// never silent.
///
/// Malformed input yields `ERR <reason>` and the server keeps reading
/// (a load generator must not be able to wedge the service with one bad
/// line) while bumping a `rejected_lines` quarantine counter reported
/// by `health`. Parsing is strict — unknown verbs, missing or trailing
/// tokens, and non-numeric operands are all rejected — and pure (no
/// I/O), so the same parser is unit-tested directly and driven through
/// the binary end to end.
///
/// The same verbs also travel as length-prefixed binary frames
/// (net/wire.h, spec in docs/PROTOCOL.md). Both wire formats meet at
/// `Command` (requests) and `CommandResult` (replies), so a command
/// answers identically whichever encoding carried it.

namespace himpact {

/// The protocol verbs. Values are the binary protocol's opcode bytes
/// (net/wire.h, docs/PROTOCOL.md) — one value space for both wire
/// formats. `kInvalid` is never a request: it marks the reply to a
/// frame whose opcode could not be decoded at all.
enum class CommandKind : unsigned char {
  kInvalid = 0x00,
  kAdd = 0x01,
  kPaper = 0x02,
  kGet = 0x03,
  kTop = 0x04,
  kHeavy = 0x05,
  kStats = 0x06,
  kHealth = 0x07,
  kSave = 0x08,
  kQuit = 0x09,
};

/// One parsed protocol line.
struct Command {
  CommandKind kind = CommandKind::kQuit;
  AuthorId user = 0;         // add, get
  std::uint64_t value = 0;   // add (response count), top (k)
  PaperTuple paper;          // paper
  std::string path;          // save
};

/// Parses one protocol line. `kInvalidArgument` (with a reason suitable
/// for an `ERR` reply) on malformed input; blank lines are invalid.
StatusOr<Command> ParseCommandLine(std::string_view line);

/// The `tier` value a `get` reply carries for a user the service has
/// never seen (rendered as "none" on the text wire, 0xFF on the binary
/// one).
inline constexpr int kTierNone = -1;

/// Transport-neutral outcome of one command: what the service answered,
/// before any wire rendering. `ServiceSession::HandleBatch` produces
/// one per command; `FormatTextReply` renders it as the text protocol
/// line and `EncodeReplyFrame` (net/wire.h) as a binary reply frame.
/// Both renderings are lossless over these fields, which is what the
/// text/binary parity tests lean on: decode(binary reply) re-rendered
/// as text is byte-identical to the text reply.
struct CommandResult {
  CommandKind kind = CommandKind::kQuit;
  /// `kOk`, or the error class: `kInvalidArgument` renders as `ERR`,
  /// `kResourceExhausted` / `kDeadlineExceeded` keep their own wire
  /// spellings (docs/ROBUSTNESS.md), anything else degrades to `ERR`.
  StatusCode code = StatusCode::kOk;
  /// Error reason (non-OK results only).
  std::string message;
  double estimate = 0.0;          // add, get
  std::uint32_t num_authors = 0;  // paper
  AuthorId user = 0;              // get (echoed)
  int tier = kTierNone;           // get (0/1/2, kTierNone if unseen)
  std::uint64_t events = 0;       // get
  std::uint64_t stripes_skipped = 0;  // top (tags TOP-LB)
  /// top / heavy entries, in reply order: (user, estimate) pairs.
  std::vector<std::pair<AuthorId, double>> entries;
  /// stats / health JSON object (braces included), or the save path.
  std::string text;
};

/// Renders a `CommandResult` as the newline-terminated text-protocol
/// reply. This is *the* text reply encoder: the stdin loop and the TCP
/// text path both emit exactly these bytes.
std::string FormatTextReply(const CommandResult& result);

/// Formats an H-index estimate the way every reply does (shortest
/// round-trippable form via %.6g — estimates are small grid powers, so
/// this is deterministic and stable across runs).
std::string FormatEstimate(double estimate);

/// The tier names used in `get` replies: "cold", "hot", "frozen",
/// "segment".
const char* TierName(int tier);

}  // namespace himpact

#endif  // HIMPACT_SERVICE_PROTOCOL_H_
