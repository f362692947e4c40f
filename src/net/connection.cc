#include "net/connection.h"

#include "net/wire.h"

namespace himpact {

void Connection::AppendInput(const char* data, std::size_t n,
                             std::uint64_t now_nanos) {
  if (n == 0) return;
  if (!HasPartialRequest()) request_start_nanos_ = now_nanos;
  // Compact before growing: the consumed prefix is dead weight and the
  // buffer must stay bounded by max_line_bytes + one read chunk.
  if (rbuf_off_ > 0) {
    rbuf_.erase(0, rbuf_off_);
    rbuf_off_ = 0;
  }
  rbuf_.append(data, n);
  last_activity_nanos_ = now_nanos;
}

LineResult Connection::NextLine(const ConnectionLimits& limits,
                                std::string_view* line) {
  const std::size_t newline = rbuf_.find('\n', rbuf_off_);
  if (newline == std::string::npos) {
    if (rbuf_.size() - rbuf_off_ > limits.max_line_bytes) {
      return LineResult::kOversize;
    }
    return LineResult::kNone;
  }
  if (newline - rbuf_off_ > limits.max_line_bytes) {
    return LineResult::kOversize;
  }
  *line = std::string_view(rbuf_).substr(rbuf_off_, newline - rbuf_off_);
  rbuf_off_ = newline + 1;
  if (rbuf_off_ < rbuf_.size()) {
    // More pipelined bytes follow; the next request's clock starts at
    // the moment its first byte became the pending fragment — i.e. now,
    // when the previous line was consumed.
    request_start_nanos_ = last_activity_nanos_;
  }
  return LineResult::kLine;
}

FrameResult Connection::NextFrame(const ConnectionLimits& limits,
                                  std::string_view* frame) {
  const std::size_t pending = rbuf_.size() - rbuf_off_;
  if (pending == 0) return FrameResult::kNone;
  if (static_cast<unsigned char>(rbuf_[rbuf_off_]) != kWireRequestMagic) {
    return FrameResult::kBadMagic;
  }
  if (pending < kWirePreludeBytes) return FrameResult::kNone;
  const std::uint32_t payload_bytes =
      WirePayloadLength(rbuf_.data() + rbuf_off_);
  const std::uint64_t frame_bytes =
      static_cast<std::uint64_t>(kWirePreludeBytes) + payload_bytes;
  // Reject on the declared size, before the payload arrives: a hostile
  // length prefix must not grow the read buffer past the line bound.
  if (frame_bytes > limits.max_line_bytes) return FrameResult::kOversize;
  if (pending < frame_bytes) return FrameResult::kNone;
  *frame = std::string_view(rbuf_).substr(
      rbuf_off_, static_cast<std::size_t>(frame_bytes));
  rbuf_off_ += static_cast<std::size_t>(frame_bytes);
  if (rbuf_off_ < rbuf_.size()) {
    // Same pipelining rule as NextLine: the next request's clock starts
    // when the previous frame was consumed.
    request_start_nanos_ = last_activity_nanos_;
  }
  return FrameResult::kFrame;
}

void Connection::Unread(std::string_view request) {
  rbuf_off_ = static_cast<std::size_t>(request.data() - rbuf_.data());
}

void Connection::ConsumeWritten(std::size_t n, std::uint64_t now_nanos) {
  wbuf_off_ += n;
  if (wbuf_off_ >= wbuf_.size()) {
    wbuf_.clear();
    wbuf_off_ = 0;
  }
  last_activity_nanos_ = now_nanos;
}

}  // namespace himpact
