#include "net/wire.h"

#include <cstring>

namespace himpact {
namespace {

// ---------------------------------------------------------------------
// Little-endian primitives. Byte-at-a-time shifts, so the codec is
// endian- and alignment-agnostic.

void AppendU8(std::string* out, unsigned char value) {
  out->push_back(static_cast<char>(value));
}

void AppendU32(std::string* out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendU64(std::string* out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendF64(std::string* out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

// A bounded read cursor over a frame payload. Reads past the end trip
// `ok` instead of reading garbage; the decoders turn that into one
// structured error.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t off = 0;
  bool ok = true;

  std::size_t remaining() const { return size - off; }

  unsigned char U8() {
    if (off + 1 > size) {
      ok = false;
      return 0;
    }
    return static_cast<unsigned char>(data[off++]);
  }

  std::uint32_t U32() {
    if (off + 4 > size) {
      ok = false;
      return 0;
    }
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data[off++]))
               << shift;
    }
    return value;
  }

  std::uint64_t U64() {
    if (off + 8 > size) {
      ok = false;
      return 0;
    }
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data[off++]))
               << shift;
    }
    return value;
  }

  double F64() {
    const std::uint64_t bits = U64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
};

Status BadFrame(const std::string& reason) {
  return Status::InvalidArgument(reason);
}

/// Wraps a finished payload in the frozen six-byte prelude.
std::string Frame(unsigned char magic, const std::string& payload) {
  std::string frame;
  frame.reserve(kWirePreludeBytes + payload.size());
  AppendU8(&frame, magic);
  AppendU8(&frame, kWireVersion);
  AppendU32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

/// Validates the prelude of a complete frame and returns a cursor over
/// its payload. Shared by the request and reply decoders — the rules
/// (magic, version, declared length = actual payload bytes) are
/// identical in both directions.
Status OpenFrame(std::string_view frame, unsigned char magic,
                 Cursor* payload) {
  if (frame.size() < kWirePreludeBytes) {
    return BadFrame("truncated frame prelude");
  }
  const unsigned char got_magic = static_cast<unsigned char>(frame[0]);
  if (got_magic != magic) {
    return BadFrame("bad magic byte 0x" + std::to_string(got_magic));
  }
  const unsigned char version = static_cast<unsigned char>(frame[1]);
  if (version != kWireVersion) {
    return BadFrame("unsupported protocol version " +
                    std::to_string(version) + " (this server speaks " +
                    std::to_string(kWireVersion) + ")");
  }
  const std::uint32_t length = WirePayloadLength(frame.data());
  if (frame.size() != kWirePreludeBytes + length) {
    return BadFrame("declared payload length " + std::to_string(length) +
                    " does not match frame size");
  }
  payload->data = frame.data() + kWirePreludeBytes;
  payload->size = length;
  return Status::OK();
}

WireStatus StatusByte(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kResourceExhausted:
      return WireStatus::kResourceExhausted;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    default:
      return WireStatus::kErr;
  }
}

}  // namespace

std::uint32_t WirePayloadLength(const char* prelude) {
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(prelude[2 + i]))
              << (8 * i);
  }
  return length;
}

std::string EncodeRequestFrame(const Command& command) {
  std::string payload;
  AppendU8(&payload, static_cast<unsigned char>(command.kind));
  switch (command.kind) {
    case CommandKind::kAdd:
      AppendU64(&payload, command.user);
      AppendU64(&payload, command.value);
      break;
    case CommandKind::kPaper:
      AppendU64(&payload, command.paper.paper);
      AppendU64(&payload, command.paper.citations);
      AppendU8(&payload,
               static_cast<unsigned char>(command.paper.authors.size()));
      for (const AuthorId author : command.paper.authors) {
        AppendU64(&payload, author);
      }
      break;
    case CommandKind::kGet:
      AppendU64(&payload, command.user);
      break;
    case CommandKind::kTop:
      AppendU64(&payload, command.value);
      break;
    case CommandKind::kSave:
      payload += command.path;
      break;
    case CommandKind::kHeavy:
    case CommandKind::kStats:
    case CommandKind::kHealth:
    case CommandKind::kQuit:
    case CommandKind::kInvalid:
      break;  // no operands (kInvalid is never encoded as a request)
  }
  return Frame(kWireRequestMagic, payload);
}

StatusOr<Command> DecodeRequestFrame(std::string_view frame) {
  Cursor payload{nullptr, 0};
  const Status opened = OpenFrame(frame, kWireRequestMagic, &payload);
  if (!opened.ok()) return opened;
  if (payload.size == 0) return BadFrame("empty payload (missing opcode)");

  const unsigned char opcode = payload.U8();
  Command command;
  switch (static_cast<WireOpcode>(opcode)) {
    case WireOpcode::kAdd: {
      command.kind = CommandKind::kAdd;
      command.user = payload.U64();
      command.value = payload.U64();
      break;
    }
    case WireOpcode::kPaper: {
      command.kind = CommandKind::kPaper;
      command.paper.paper = payload.U64();
      command.paper.citations = payload.U64();
      const unsigned char count = payload.U8();
      if (!payload.ok) break;
      if (count == 0) return BadFrame("empty author list");
      if (count > kMaxAuthorsPerPaper) {
        return BadFrame("too many authors (max " +
                        std::to_string(kMaxAuthorsPerPaper) + ")");
      }
      for (unsigned char i = 0; i < count && payload.ok; ++i) {
        const AuthorId author = payload.U64();
        if (!payload.ok) break;
        if (command.paper.authors.Contains(author)) {
          return BadFrame("duplicate author id " + std::to_string(author));
        }
        command.paper.authors.PushBack(author);
      }
      break;
    }
    case WireOpcode::kGet: {
      command.kind = CommandKind::kGet;
      command.user = payload.U64();
      break;
    }
    case WireOpcode::kTop: {
      command.kind = CommandKind::kTop;
      command.value = payload.U64();
      if (payload.ok && command.value == 0) return BadFrame("bad k 0");
      break;
    }
    case WireOpcode::kHeavy:
      command.kind = CommandKind::kHeavy;
      break;
    case WireOpcode::kStats:
      command.kind = CommandKind::kStats;
      break;
    case WireOpcode::kHealth:
      command.kind = CommandKind::kHealth;
      break;
    case WireOpcode::kSave: {
      command.kind = CommandKind::kSave;
      command.path.assign(payload.data + payload.off, payload.remaining());
      payload.off = payload.size;
      if (command.path.empty()) return BadFrame("empty save path");
      if (command.path.find('\0') != std::string::npos) {
        return BadFrame("NUL byte in save path");
      }
      break;
    }
    case WireOpcode::kQuit:
      command.kind = CommandKind::kQuit;
      break;
    default:
      return BadFrame("unknown opcode 0x" + std::to_string(opcode));
  }
  if (!payload.ok) return BadFrame("short operands for opcode");
  // Strictness parity with the text parser: trailing operand bytes are
  // rejected, not ignored.
  if (payload.remaining() != 0) {
    return BadFrame("trailing bytes after operands");
  }
  return command;
}

std::string EncodeReplyFrame(const CommandResult& result) {
  std::string payload;
  AppendU8(&payload, static_cast<unsigned char>(StatusByte(result.code)));
  AppendU8(&payload, static_cast<unsigned char>(result.kind));
  if (result.code != StatusCode::kOk) {
    payload += result.message;
    return Frame(kWireReplyMagic, payload);
  }
  switch (result.kind) {
    case CommandKind::kAdd:
      AppendF64(&payload, result.estimate);
      break;
    case CommandKind::kPaper:
      AppendU8(&payload, static_cast<unsigned char>(result.num_authors));
      break;
    case CommandKind::kGet:
      AppendU64(&payload, result.user);
      AppendF64(&payload, result.estimate);
      AppendU8(&payload, result.tier == kTierNone
                             ? kWireTierNone
                             : static_cast<unsigned char>(result.tier));
      AppendU64(&payload, result.events);
      break;
    case CommandKind::kTop:
      AppendU32(&payload, static_cast<std::uint32_t>(result.stripes_skipped));
      AppendU32(&payload, static_cast<std::uint32_t>(result.entries.size()));
      for (const auto& [user, estimate] : result.entries) {
        AppendU64(&payload, user);
        AppendF64(&payload, estimate);
      }
      break;
    case CommandKind::kHeavy:
      AppendU32(&payload, static_cast<std::uint32_t>(result.entries.size()));
      for (const auto& [user, estimate] : result.entries) {
        AppendU64(&payload, user);
        AppendF64(&payload, estimate);
      }
      break;
    case CommandKind::kStats:
    case CommandKind::kHealth:
    case CommandKind::kSave:
      payload += result.text;
      break;
    case CommandKind::kQuit:
    case CommandKind::kInvalid:
      break;  // empty body (an OK result never carries kInvalid)
  }
  return Frame(kWireReplyMagic, payload);
}

std::string EncodeErrorFrame(const std::string& reason) {
  CommandResult result;
  result.kind = CommandKind::kInvalid;
  result.code = StatusCode::kInvalidArgument;
  result.message = reason;
  return EncodeReplyFrame(result);
}

StatusOr<CommandResult> DecodeReplyFrame(const std::string& frame) {
  Cursor payload{nullptr, 0};
  const Status opened = OpenFrame(frame, kWireReplyMagic, &payload);
  if (!opened.ok()) return opened;
  if (payload.size < 2) return BadFrame("reply payload shorter than header");

  const unsigned char status = payload.U8();
  const unsigned char opcode = payload.U8();
  CommandResult result;
  switch (static_cast<WireStatus>(status)) {
    case WireStatus::kOk:
      result.code = StatusCode::kOk;
      break;
    case WireStatus::kErr:
      result.code = StatusCode::kInvalidArgument;
      break;
    case WireStatus::kResourceExhausted:
      result.code = StatusCode::kResourceExhausted;
      break;
    case WireStatus::kDeadlineExceeded:
      result.code = StatusCode::kDeadlineExceeded;
      break;
    default:
      return BadFrame("unknown status byte 0x" + std::to_string(status));
  }
  if (opcode > static_cast<unsigned char>(CommandKind::kQuit)) {
    return BadFrame("unknown opcode 0x" + std::to_string(opcode));
  }
  result.kind = static_cast<CommandKind>(opcode);
  if (result.kind == CommandKind::kInvalid &&
      result.code == StatusCode::kOk) {
    return BadFrame("OK reply with opcode 0");
  }

  if (result.code != StatusCode::kOk) {
    result.message.assign(payload.data + payload.off, payload.remaining());
    return result;
  }
  switch (result.kind) {
    case CommandKind::kAdd:
      result.estimate = payload.F64();
      break;
    case CommandKind::kPaper:
      result.num_authors = payload.U8();
      break;
    case CommandKind::kGet: {
      result.user = payload.U64();
      result.estimate = payload.F64();
      const unsigned char tier = payload.U8();
      result.events = payload.U64();
      if (payload.ok && tier != kWireTierNone && tier > 3) {
        return BadFrame("unknown tier byte 0x" + std::to_string(tier));
      }
      result.tier = tier == kWireTierNone ? kTierNone : static_cast<int>(tier);
      break;
    }
    case CommandKind::kTop:
    case CommandKind::kHeavy: {
      if (result.kind == CommandKind::kTop) {
        result.stripes_skipped = payload.U32();
      }
      const std::uint32_t count = payload.U32();
      if (payload.ok && payload.remaining() != count * 16ull) {
        return BadFrame("entry count does not match payload size");
      }
      result.entries.reserve(count);
      for (std::uint32_t i = 0; i < count && payload.ok; ++i) {
        const AuthorId user = payload.U64();
        const double estimate = payload.F64();
        result.entries.emplace_back(user, estimate);
      }
      break;
    }
    case CommandKind::kStats:
    case CommandKind::kHealth:
    case CommandKind::kSave:
      result.text.assign(payload.data + payload.off, payload.remaining());
      payload.off = payload.size;
      break;
    case CommandKind::kQuit:
    case CommandKind::kInvalid:
      break;
  }
  if (!payload.ok) return BadFrame("short reply body for opcode");
  if (payload.remaining() != 0) return BadFrame("trailing bytes after body");
  return result;
}

}  // namespace himpact
