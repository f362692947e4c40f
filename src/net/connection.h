#ifndef HIMPACT_NET_CONNECTION_H_
#define HIMPACT_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/socket.h"

/// \file
/// Per-connection state for the TCP front end (net/server.h): bounded
/// read/write buffers, request framing, and the activity/deadline
/// bookkeeping the event loop's lifecycle policies (idle eviction,
/// slow-loris kill, oversize kill, backpressure) are driven by. The
/// buffer mechanics are pure — no syscalls — so the framing and
/// watermark rules are unit-testable without sockets.
///
/// A connection speaks one of two framings, latched from its first
/// byte (docs/PROTOCOL.md "Protocol selection"): newline-delimited
/// text lines (`NextLine`) or length-prefixed binary frames
/// (`NextFrame`, net/wire.h). Both share the same buffers and the same
/// oversize / partial-read / backpressure semantics — `max_line_bytes`
/// bounds a whole binary frame exactly as it bounds a text line.
///
/// Lifecycle (enforced by the server, recorded here):
///
///   reading ──complete request──▶ handler ──reply──▶ writing
///      │  write backlog over the high watermark pauses input
///      │  (stop reading: TCP backpressure reaches the client)
///      └─ oversize / bad magic / quit / EOF / deadline ──▶
///        close-after-flush

namespace himpact {

/// Buffer policy shared by every connection of a server.
struct ConnectionLimits {
  /// A request longer than this kills the connection with one
  /// structured error reply — a text line with no newline seen, or a
  /// binary frame whose declared prelude + payload size exceeds it.
  std::size_t max_line_bytes = 1 << 16;
  /// Pending-reply high watermark: above it the server stops reading
  /// from the connection until the backlog drains below
  /// `write_resume_bytes`.
  std::size_t write_buffer_limit = 1 << 18;
  std::size_t write_resume_bytes = 1 << 17;
};

/// Result of asking a connection for its next framed request line.
enum class LineResult {
  kLine,      // a complete line was extracted
  kNone,      // no complete line buffered (yet)
  kOversize,  // pending bytes exceed max_line_bytes with no newline
};

/// Which framing this connection speaks, latched from its first byte:
/// 0xB1 (the binary request magic, outside ASCII) selects binary,
/// anything else falls back to the text line protocol.
enum class WireProtocol {
  kUndetected,  // no bytes received yet
  kText,
  kBinary,
};

/// Result of asking a binary connection for its next complete frame.
enum class FrameResult {
  kFrame,     // a complete frame (prelude + payload) was extracted
  kNone,      // frame still incomplete (partial prelude or payload)
  kOversize,  // declared frame size exceeds max_line_bytes
  kBadMagic,  // next pending byte is not the request magic — desynced
};

/// One accepted client connection.
class Connection {
 public:
  Connection(UniqueFd fd, std::uint64_t now_nanos)
      : fd_(std::move(fd)),
        last_activity_nanos_(now_nanos) {}

  int fd() const { return fd_.get(); }

  /// Appends freshly read bytes. Counts as activity; the first pending
  /// byte of a not-yet-complete request starts the per-request clock.
  void AppendInput(const char* data, std::size_t n, std::uint64_t now_nanos);

  /// Extracts the next complete request line (newline stripped, any
  /// carriage return left for the strict parser to reject) as a view
  /// into the read buffer, valid until the next `AppendInput`.
  /// `kOversize` once the pending fragment outgrows
  /// `limits.max_line_bytes`.
  LineResult NextLine(const ConnectionLimits& limits, std::string_view* line);

  /// Extracts the next complete binary frame (prelude + payload,
  /// exactly as `DecodeRequestFrame` expects). `kBadMagic` when the
  /// next pending byte is not 0xB1 — the stream is desynced and cannot
  /// be reframed, so the server kills the connection after one error
  /// frame. `kOversize` as soon as the *declared* size exceeds
  /// `limits.max_line_bytes`, without waiting for the payload bytes (a
  /// hostile length prefix must not make the server buffer 4 GiB). A
  /// frame with an unsupported version byte is still extracted whole —
  /// the frozen prelude makes its length trustworthy — and rejected
  /// per-frame by the decoder. The frame is a view into the read
  /// buffer, valid until the next `AppendInput`.
  FrameResult NextFrame(const ConnectionLimits& limits,
                        std::string_view* frame);

  /// Puts back `request`, a view returned since the last `AppendInput`,
  /// and everything extracted after it: the next extraction starts at
  /// `request` again.
  void Unread(std::string_view request);

  /// The framing this connection speaks; latched by the server from
  /// the first received byte.
  WireProtocol protocol() const { return protocol_; }
  void set_protocol(WireProtocol protocol) { protocol_ = protocol; }

  /// Peeks the first unconsumed input byte (protocol detection).
  /// False when no input is pending.
  bool PeekByte(unsigned char* byte) const {
    if (!HasPartialRequest()) return false;
    *byte = static_cast<unsigned char>(rbuf_[rbuf_off_]);
    return true;
  }

  /// Queues reply bytes for the socket writer.
  void QueueReply(const std::string& reply) { wbuf_.append(reply); }

  /// Unwritten reply bytes / their location.
  std::size_t PendingWriteBytes() const { return wbuf_.size() - wbuf_off_; }
  const char* PendingWriteData() const { return wbuf_.data() + wbuf_off_; }

  /// Consumes `n` written bytes; counts as activity. Compacts the
  /// buffer once everything queued has left.
  void ConsumeWritten(std::size_t n, std::uint64_t now_nanos);

  /// Backpressure predicates against the shared watermarks.
  bool WriteBacklogged(const ConnectionLimits& limits) const {
    return PendingWriteBytes() > limits.write_buffer_limit;
  }
  bool WriteResumable(const ConnectionLimits& limits) const {
    return PendingWriteBytes() <= limits.write_resume_bytes;
  }

  /// Nanoseconds since the last read or write progress.
  std::uint64_t IdleNanos(std::uint64_t now_nanos) const {
    return now_nanos > last_activity_nanos_
               ? now_nanos - last_activity_nanos_
               : 0;
  }
  std::uint64_t last_activity_nanos() const { return last_activity_nanos_; }

  /// True while an incomplete request line is pending — the slow-loris
  /// signature — and how long its first byte has been waiting.
  bool HasPartialRequest() const { return rbuf_off_ < rbuf_.size(); }
  std::uint64_t RequestAgeNanos(std::uint64_t now_nanos) const {
    return HasPartialRequest() && now_nanos > request_start_nanos_
               ? now_nanos - request_start_nanos_
               : 0;
  }

  /// Close once the pending replies have been flushed (quit, EOF,
  /// oversize kill, drain).
  bool close_after_flush() const { return close_after_flush_; }
  void set_close_after_flush() { close_after_flush_ = true; }

  /// Peer half-closed its write side; buffered requests still answer.
  bool read_eof() const { return read_eof_; }
  void set_read_eof() { read_eof_ = true; }

  /// Input processing paused under write backpressure.
  bool paused() const { return paused_; }
  void set_paused(bool paused) { paused_ = paused; }

  /// EPOLLOUT currently armed for this connection.
  bool want_write() const { return want_write_; }
  void set_want_write(bool want) { want_write_ = want; }

 private:
  UniqueFd fd_;
  WireProtocol protocol_ = WireProtocol::kUndetected;
  std::string rbuf_;
  std::size_t rbuf_off_ = 0;  // consumed prefix (compacted lazily)
  std::string wbuf_;
  std::size_t wbuf_off_ = 0;
  std::uint64_t last_activity_nanos_ = 0;
  std::uint64_t request_start_nanos_ = 0;
  bool close_after_flush_ = false;
  bool read_eof_ = false;
  bool paused_ = false;
  bool want_write_ = false;
};

}  // namespace himpact

#endif  // HIMPACT_NET_CONNECTION_H_
