#ifndef HIMPACT_COMMON_BYTES_H_
#define HIMPACT_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

/// \file
/// Little-endian byte buffers for sketch serialization.
///
/// Streaming deployments checkpoint sketch state across restarts and ship
/// shard sketches to a merger; `ByteWriter`/`ByteReader` are the codec
/// the estimators' `SerializeTo` / `DeserializeFrom` methods share. The
/// format is fixed-width little-endian with per-type magic tags — simple
/// enough to parse from any language. Compact layouts (the sparse sketch
/// and segment records) add LEB128 varints.

namespace himpact {

/// Stores `value` little-endian at `out`, which needs 4 (8) bytes; the
/// layout `ByteWriter::U32` (`U64`) appends, for callers that frame
/// into a buffer they own.
inline void StoreLe32(std::uint8_t* out, std::uint32_t value) {
  for (int b = 0; b < 4; ++b) {
    out[b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}
inline void StoreLe64(std::uint8_t* out, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    out[b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

/// Appends fixed-width values to a growable byte buffer.
class ByteWriter {
 public:
  /// Appends a single byte.
  void U8(std::uint8_t value) { buffer_.push_back(value); }

  /// Appends a 32-bit unsigned value (little-endian).
  void U32(std::uint32_t value) {
    for (int b = 0; b < 4; ++b) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
    }
  }

  /// Appends a 64-bit unsigned value (little-endian).
  void U64(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
    }
  }

  /// Appends a 64-bit signed value (two's complement).
  void I64(std::int64_t value) {
    U64(static_cast<std::uint64_t>(value));
  }

  /// Appends a double (IEEE-754 bit pattern).
  void F64(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  /// Appends `value` as an LEB128 varint: 7 bits per byte, low group
  /// first, the high bit set on every byte but the last (1–10 bytes).
  void Varint(std::uint64_t value) {
    while (value >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(value));
  }

  /// Appends `n` raw bytes verbatim.
  void Bytes(const std::uint8_t* data, std::size_t n) {
    buffer_.insert(buffer_.end(), data, data + n);
  }

  /// The accumulated bytes.
  const std::vector<std::uint8_t>& buffer() const { return buffer_; }

  /// Moves the buffer out.
  std::vector<std::uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reads fixed-width values back; every read reports success so callers
/// can reject truncated or corrupt buffers.
class ByteReader {
 public:
  /// Wraps (does not copy) the byte buffer; it must outlive the reader.
  explicit ByteReader(std::span<const std::uint8_t> buffer)
      : buffer_(buffer) {}

  /// Reads a single byte. Returns false at end of buffer.
  bool U8(std::uint8_t* value) {
    if (remaining() < 1) return false;
    *value = buffer_[position_];
    ++position_;
    return true;
  }

  /// Reads a 32-bit unsigned value. Returns false at end of buffer.
  bool U32(std::uint32_t* value) {
    if (remaining() < 4) return false;
    std::uint32_t out = 0;
    for (int b = 0; b < 4; ++b) {
      out |= static_cast<std::uint32_t>(buffer_[position_ + b]) << (8 * b);
    }
    position_ += 4;
    *value = out;
    return true;
  }

  /// Reads a 64-bit unsigned value. Returns false at end of buffer.
  bool U64(std::uint64_t* value) {
    if (remaining() < 8) return false;
    std::uint64_t out = 0;
    for (int b = 0; b < 8; ++b) {
      out |= static_cast<std::uint64_t>(buffer_[position_ + b]) << (8 * b);
    }
    position_ += 8;
    *value = out;
    return true;
  }

  /// Reads a 64-bit signed value.
  bool I64(std::int64_t* value) {
    std::uint64_t bits;
    if (!U64(&bits)) return false;
    *value = static_cast<std::int64_t>(bits);
    return true;
  }

  /// Reads a double.
  bool F64(double* value) {
    std::uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(value, &bits, sizeof(*value));
    return true;
  }

  /// Reads a `ByteWriter::Varint`. Returns false — consuming nothing —
  /// when the buffer ends inside it or the encoding is not the one
  /// `Varint` writes: an overlong form (a zero last byte after a
  /// continuation byte) or bits past 64, so every value has exactly one
  /// accepted encoding.
  bool Varint(std::uint64_t* value) {
    std::uint64_t out = 0;
    for (std::size_t at = position_, shift = 0;
         at < buffer_.size() && shift < 64; ++at, shift += 7) {
      const std::uint8_t byte = buffer_[at];
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) != 0) continue;
      if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) return false;
      position_ = at + 1;
      *value = out;
      return true;
    }
    return false;
  }

  /// Reads exactly `n` raw bytes into `out` (replacing its contents).
  /// Returns false — consuming nothing — if fewer than `n` bytes remain.
  /// The bounds check is overflow-safe: `n` is compared against the bytes
  /// left rather than added to the cursor.
  bool Bytes(std::size_t n, std::vector<std::uint8_t>* out) {
    if (n > remaining()) return false;
    const auto first =
        buffer_.begin() + static_cast<std::ptrdiff_t>(position_);
    out->assign(first, first + static_cast<std::ptrdiff_t>(n));
    position_ += n;
    return true;
  }

  /// Number of unconsumed bytes.
  std::size_t remaining() const { return buffer_.size() - position_; }

  /// True iff every byte has been consumed.
  bool AtEnd() const { return position_ == buffer_.size(); }

 private:
  std::span<const std::uint8_t> buffer_;
  std::size_t position_ = 0;
};

}  // namespace himpact

#endif  // HIMPACT_COMMON_BYTES_H_
