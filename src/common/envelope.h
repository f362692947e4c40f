#ifndef HIMPACT_COMMON_ENVELOPE_H_
#define HIMPACT_COMMON_ENVELOPE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

/// \file
/// Framed checkpoint envelope: magic, format version, per-type tag,
/// payload length, and CRC32.
///
/// The raw `ByteWriter`/`ByteReader` codec (`bytes.h`) is deliberately
/// headerless so sketches can be chained back to back inside one payload.
/// Anything that leaves the process — a checkpoint file, a shard sketch
/// shipped to a merger — is wrapped in this envelope instead, so that a
/// truncated, bit-flipped, or wrong-type buffer is rejected with a clean
/// `Status` before any sketch decoder runs. See docs/CHECKPOINTS.md for
/// the byte-level layout and compatibility rules.

namespace himpact {

/// 'HICP' little-endian: the first four bytes of every checkpoint.
inline constexpr std::uint32_t kEnvelopeMagic = 0x50434948u;

/// Current envelope format version. Bump on any layout change; readers
/// reject versions they do not know (see docs/CHECKPOINTS.md).
inline constexpr std::uint32_t kEnvelopeVersion = 1;

/// Serialized envelope header size in bytes:
/// magic(4) + version(4) + tag(4) + length(8) + crc32(4).
inline constexpr std::size_t kEnvelopeHeaderBytes = 24;

/// Per-type tags so a checkpoint of one sketch type is never fed to
/// another type's decoder. Values are part of the on-disk format: never
/// reuse or renumber, only append.
enum class CheckpointTag : std::uint32_t {
  kExponentialHistogram = 1,
  kShiftingWindow = 2,
  kDgim = 3,
  kSlidingWindowHIndex = 4,
  kPhiIndex = 5,
  kOneSparse = 6,
  kSSparse = 7,
  kL0Sampler = 8,
  kDistinct = 9,
  kBjkst = 10,
  kHyperLogLog = 11,
  kKll = 12,
  kCountMin = 13,
  kCountSketch = 14,
  kSpaceSaving = 15,
  kMisraGries = 16,
  kReservoir = 17,
  kCashRegister = 18,
  kRandomOrder = 19,
  kOneHeavyHitter = 20,
  kHeavyHitters = 21,
  kIncrementalExact = 22,
  kExactCashRegister = 23,
  kCliSession = 24,
  kEngineManifest = 25,
  kEngineShard = 26,
  kServiceManifest = 27,
  kServiceStripe = 28,
  kSegmentRecord = 29,
  /// Reserved: an earlier build's incremental delta chain. A service
  /// restore still decodes a `kDeltaHead` to refuse a chain past
  /// generation 0 (docs/CHECKPOINTS.md).
  kDeltaManifest = 30,
  kDeltaHead = 31,
  kWalRecord = 32,
};

/// CRC32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `data`.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);
std::uint32_t Crc32(const std::vector<std::uint8_t>& data);

/// Wraps `payload` in a framed envelope carrying `tag`.
std::vector<std::uint8_t> SealEnvelope(CheckpointTag tag,
                                       const std::vector<std::uint8_t>& payload);

/// Validates and strips the envelope, returning the payload.
///
/// Fails with `kInvalidArgument` when the buffer is shorter than a
/// header, the magic or version is wrong, the tag is not `expected_tag`,
/// the recorded payload length does not exactly match the bytes present
/// (both truncation and trailing garbage are rejected), or the CRC32 does
/// not match the payload.
StatusOr<std::vector<std::uint8_t>> OpenEnvelope(
    const std::vector<std::uint8_t>& bytes, CheckpointTag expected_tag);

}  // namespace himpact

#endif  // HIMPACT_COMMON_ENVELOPE_H_
