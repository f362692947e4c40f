#ifndef HIMPACT_TESTS_FAULT_INJECTION_H_
#define HIMPACT_TESTS_FAULT_INJECTION_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/envelope.h"
#include "core/exponential_histogram.h"
#include "io/checkpoint.h"

/// \file
/// Byte-level fault injectors for checkpoint robustness tests: simulate
/// torn writes (truncation), media corruption (bit flips, byte smashes),
/// and partially written files, then assert every decoder rejects the
/// result with a clean `Status` instead of crashing or misbehaving. Also
/// crafts checkpoints in the formats of earlier builds, which a restore
/// must either refuse or still read.

namespace himpact {
namespace test {

/// The first `length` bytes of `bytes` (a torn write / short read).
inline std::vector<std::uint8_t> TruncateAt(
    const std::vector<std::uint8_t>& bytes, std::size_t length) {
  if (length > bytes.size()) length = bytes.size();
  return std::vector<std::uint8_t>(bytes.begin(),
                                   bytes.begin() + static_cast<long>(length));
}

/// A copy of `bytes` with bit `bit_index` (0 = LSB of byte 0) flipped.
inline std::vector<std::uint8_t> FlipBit(const std::vector<std::uint8_t>& bytes,
                                         std::size_t bit_index) {
  std::vector<std::uint8_t> flipped = bytes;
  flipped[bit_index / 8] ^=
      static_cast<std::uint8_t>(1u << (bit_index % 8));
  return flipped;
}

/// A copy of `bytes` with the byte at `index` overwritten by `value`.
inline std::vector<std::uint8_t> SmashByte(
    const std::vector<std::uint8_t>& bytes, std::size_t index,
    std::uint8_t value) {
  std::vector<std::uint8_t> smashed = bytes;
  smashed[index] = value;
  return smashed;
}

/// A copy of `bytes` with `extra` garbage bytes appended (a write that
/// landed over a longer previous file without truncating it).
inline std::vector<std::uint8_t> AppendGarbage(
    const std::vector<std::uint8_t>& bytes, std::size_t extra) {
  std::vector<std::uint8_t> grown = bytes;
  for (std::size_t i = 0; i < extra; ++i) {
    grown.push_back(static_cast<std::uint8_t>(0xa5u ^ (i & 0xffu)));
  }
  return grown;
}

/// Writes `bytes` to `path` directly — deliberately NOT atomic, so tests
/// can plant torn or corrupt checkpoint files on disk. Returns false on
/// I/O failure.
inline bool WriteFileRaw(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  const int close_result = std::fclose(file);
  return written == bytes.size() && close_result == 0;
}

/// Rewrites the version byte of the heavy-hitters grid magic
/// (`HIMPHHS2`) in the checkpoint file at `path`, an envelope tagged
/// `tag` (a `path.grid` file, or a stripe file in an earlier layout), to
/// `version` and re-seals the payload through `WriteCheckpointFile`, so
/// the file passes its envelope check and only the grid decoder sees the
/// change. Returns false when the file does not open or holds no grid.
inline bool RewriteGridMagicVersion(const std::string& path, CheckpointTag tag,
                                    char version) {
  StatusOr<std::vector<std::uint8_t>> payload = ReadCheckpointFile(path, tag);
  if (!payload.ok()) return false;
  std::vector<std::uint8_t>& bytes = payload.value();
  const std::uint8_t grid_magic[8] = {'2', 'S', 'H', 'H', 'P', 'M', 'I', 'H'};
  const auto at = std::search(bytes.begin(), bytes.end(), grid_magic,
                              grid_magic + sizeof(grid_magic));
  if (at == bytes.end()) return false;
  *at = static_cast<std::uint8_t>(version);
  return WriteCheckpointFile(path, tag, bytes).ok();
}

/// Rewrites the grid in the checkpoint file at `path` (see
/// `RewriteGridMagicVersion`) as an earlier build wrote it: `HIMPHHS1`
/// (reservoirs) instead of `HIMPHHS2` (bottom-s samples).
inline bool ReencodeWithReservoirGridMagic(const std::string& path,
                                           CheckpointTag tag) {
  return RewriteGridMagicVersion(path, tag, '1');
}

/// Re-encodes `payload`, which starts with a registry stripe in the
/// current `HIMPSRG4` layout (`TieredUserRegistry::SerializeStripe`), in
/// an earlier build's layout: `version` '3' (`HIMPSRG3`, the same
/// fields), '2' (`HIMPSRG2`) or '1' (`HIMPSRG1`, which also lacks the
/// segment-generation bound). The last two carry the serialized archive
/// sketch `archive` after the eight-word header and counters. Bytes
/// after the registry stripe are kept. Returns an empty vector when
/// `payload` is not in the current layout.
inline std::vector<std::uint8_t> ReencodeStripeLayout(
    const std::vector<std::uint8_t>& payload, char version,
    const std::vector<std::uint8_t>& archive) {
  constexpr std::size_t kBoundAt = 24;     // after magic, index, stripes
  constexpr std::size_t kCountersEnd = 64;
  if (payload.size() < kCountersEnd || payload[0] != '4') return {};
  std::vector<std::uint8_t> legacy(payload.begin(),
                                   payload.begin() + kCountersEnd);
  legacy[0] = static_cast<std::uint8_t>(version);
  if (version != '3') {
    legacy.insert(legacy.end(), archive.begin(), archive.end());
  }
  legacy.insert(legacy.end(), payload.begin() + kCountersEnd, payload.end());
  if (version == '1') {
    legacy.erase(legacy.begin() + kBoundAt, legacy.begin() + kBoundAt + 8);
  }
  return legacy;
}

/// Rewrites the service stripe file at `stripe_path` as an earlier build
/// wrote it: its registry stripe in `version`'s layout (see
/// `ReencodeStripeLayout`), then the heavy-hitters flag and, when `grid`
/// (that stripe's serialized grid) is not empty, the grid. In layouts
/// '1' and '2' a grid is followed by `paper_counter`, the counter those
/// builds minted add ids from. Returns false when the file does not open
/// or is not in the current layout.
inline bool ReencodeStripeFileAsLegacy(const std::string& stripe_path,
                                       char version,
                                       const std::vector<std::uint8_t>& archive,
                                       const std::vector<std::uint8_t>& grid,
                                       std::uint64_t paper_counter) {
  StatusOr<std::vector<std::uint8_t>> payload =
      ReadCheckpointFile(stripe_path, CheckpointTag::kServiceStripe);
  if (!payload.ok()) return false;
  std::vector<std::uint8_t> legacy =
      ReencodeStripeLayout(payload.value(), version, archive);
  if (legacy.empty()) return false;
  legacy.push_back(grid.empty() ? 0 : 1);
  legacy.insert(legacy.end(), grid.begin(), grid.end());
  if (!grid.empty() && version != '3') {
    for (int byte = 0; byte < 8; ++byte) {
      legacy.push_back(static_cast<std::uint8_t>(paper_counter >> (8 * byte)));
    }
  }
  return WriteCheckpointFile(stripe_path, CheckpointTag::kServiceStripe, legacy)
      .ok();
}

/// Re-encodes a segment record in the current `kSparseSegmentRecord`
/// layout (service/registry.cc) as earlier builds wrote it: a
/// `kSegmentRecord` envelope of tier u8, events u64, floor f64, cold_h
/// u64, then the cold values (count + u64s) or the hot sketch's dense
/// `SerializeTo` form. `eps` and `max_h` are the service's. Returns an
/// empty vector when `record` is not a well-formed current record.
inline std::vector<std::uint8_t> ReencodeSegmentRecordAsDense(
    const std::vector<std::uint8_t>& record, double eps,
    std::uint64_t max_h) {
  StatusOr<std::vector<std::uint8_t>> payload =
      OpenEnvelope(record, CheckpointTag::kSparseSegmentRecord);
  if (!payload.ok()) return {};
  ByteReader in(payload.value());
  ByteWriter out;
  std::uint8_t tier = 0;
  std::uint64_t field = 0;
  if (!in.U8(&tier)) return {};
  out.U8(tier);
  // events, the floor's bits, cold_h, and for a cold record the count.
  for (int i = 0; i < (tier == 0 ? 4 : 3); ++i) {
    if (!in.Varint(&field)) return {};
    out.U64(field);
  }
  if (tier == 0) {
    while (in.Varint(&field)) out.U64(field);
  } else {
    StatusOr<ExponentialHistogramEstimator> sketch =
        ExponentialHistogramEstimator::DeserializeSparseFrom(in, eps, max_h);
    if (!sketch.ok()) return {};
    sketch.value().SerializeTo(out);
  }
  if (!in.AtEnd()) return {};
  return SealEnvelope(CheckpointTag::kSegmentRecord, out.buffer());
}

}  // namespace test
}  // namespace himpact

#endif  // HIMPACT_TESTS_FAULT_INJECTION_H_
