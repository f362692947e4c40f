#ifndef HIMPACT_NET_WIRE_H_
#define HIMPACT_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/protocol.h"

/// \file
/// The length-prefixed binary wire protocol, version 1. The normative
/// byte-level specification — frame grammar, opcode table, status
/// codes, version rules, worked hex examples — is docs/PROTOCOL.md;
/// its test vectors are asserted against this codec by
/// tests/docs_vectors_test.cc, so spec and code cannot diverge
/// silently.
///
/// Every frame starts with the fixed six-byte prelude
///
///   offset 0  magic    0xB1 requests / 0xB2 replies
///   offset 1  version  0x01
///   offset 2  u32 LE   payload length N
///   offset 6  payload  (N bytes)
///
/// The prelude layout is frozen across protocol versions (the
/// forward-compatibility rule: a server can frame — and answer with a
/// structured error — a frame whose version it does not speak).
/// Request payloads are `opcode + fixed-width operands`; reply
/// payloads are `status + opcode + body`. All integers are
/// little-endian, estimates travel as raw IEEE-754 binary64 — the
/// exact doubles the text protocol would print via `FormatEstimate`,
/// which is what the text/binary parity tests assert.
///
/// The codec is pure (no I/O, no allocation beyond the returned
/// strings) and is shared by the server (`ServiceSession::HandleFrame`),
/// the client example (`examples/hstream_client.cpp`), the F8 bench,
/// and the fuzz/parity tests.

namespace himpact {

/// First frame byte. 0xB1/0xB2 are outside ASCII, so the first byte of
/// a connection cleanly separates binary clients from text clients
/// (every text verb starts with a lowercase ASCII letter).
inline constexpr unsigned char kWireRequestMagic = 0xB1;
inline constexpr unsigned char kWireReplyMagic = 0xB2;

/// The protocol version this codec speaks.
inline constexpr unsigned char kWireVersion = 0x01;

/// Frame prelude size: magic + version + u32 payload length.
inline constexpr std::size_t kWirePreludeBytes = 6;

/// Request opcodes, one per text verb (docs/PROTOCOL.md, "Opcodes").
enum class WireOpcode : unsigned char {
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

/// Reply status byte, mirroring the text protocol's reply-code
/// vocabulary (`ERR` / `RESOURCE_EXHAUSTED` / `DEADLINE_EXCEEDED`,
/// docs/ROBUSTNESS.md).
enum class WireStatus : unsigned char {
  kOk = 0x00,
  kErr = 0x01,
  kResourceExhausted = 0x02,
  kDeadlineExceeded = 0x03,
};

/// The `tier` byte of a binary `get` reply for a never-seen user
/// (the text protocol's "none").
inline constexpr unsigned char kWireTierNone = 0xFF;

/// Reads the payload length out of a frame prelude. The caller must
/// have `kWirePreludeBytes` bytes available at `prelude`.
std::uint32_t WirePayloadLength(const char* prelude);

// ---------------------------------------------------------------------
// Requests.

/// Encodes one parsed command as a complete request frame (prelude +
/// payload). Every `Command` the text parser can produce is encodable.
std::string EncodeRequestFrame(const Command& command);

/// Decodes a complete request frame (prelude + payload, as extracted by
/// `Connection::NextFrame`). `kInvalidArgument` with a reason suitable
/// for an error reply on anything malformed: bad magic, unsupported
/// version, unknown opcode, short/long operands, or operand values the
/// text parser would reject (k = 0, empty/duplicate/oversized author
/// lists, empty save path).
StatusOr<Command> DecodeRequestFrame(std::string_view frame);

// ---------------------------------------------------------------------
// Replies.

/// Encodes a command outcome as a complete reply frame. Non-OK results
/// encode as `status + opcode + message bytes` regardless of kind.
std::string EncodeReplyFrame(const CommandResult& result);

/// Encodes the one error reply that can precede a connection kill when
/// no request was decodable at all (bad magic, oversized declared
/// length): status `kErr`, opcode 0x00, `reason` as the body.
std::string EncodeErrorFrame(const std::string& reason);

/// Decodes a complete reply frame back into the transport-neutral
/// result. Lossless against `EncodeReplyFrame`: re-encoding the decoded
/// result reproduces the frame byte-identically, and re-rendering it
/// with `FormatTextReply` reproduces the text-protocol reply — the
/// parity property the tests and `hstream_client` rely on.
StatusOr<CommandResult> DecodeReplyFrame(const std::string& frame);

}  // namespace himpact

#endif  // HIMPACT_NET_WIRE_H_
