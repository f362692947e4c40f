#ifndef HIMPACT_TESTS_FAULT_INJECTION_H_
#define HIMPACT_TESTS_FAULT_INJECTION_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/envelope.h"
#include "io/checkpoint.h"

/// \file
/// Byte-level fault injectors for checkpoint robustness tests: simulate
/// torn writes (truncation), media corruption (bit flips, byte smashes),
/// and partially written files, then assert every decoder rejects the
/// result with a clean `Status` instead of crashing or misbehaving. Also
/// rewrites checkpoints into the layouts of earlier builds, which a
/// restore must refuse.

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

/// Rewrites the version byte of the 8-byte magic `current` (written
/// little-endian, so the version digit is its first byte) in the
/// checkpoint file at `path`, an envelope tagged `tag`, to `version`, and
/// re-seals the payload through `WriteCheckpointFile`, so the file passes
/// its envelope check and only the decoder behind it sees the change.
/// Returns false when the file does not open or holds no such magic.
inline bool RewriteMagicVersion(const std::string& path, CheckpointTag tag,
                                std::uint64_t current, char version) {
  StatusOr<std::vector<std::uint8_t>> payload = ReadCheckpointFile(path, tag);
  if (!payload.ok()) return false;
  std::vector<std::uint8_t>& bytes = payload.value();
  std::uint8_t magic[8];
  for (int byte = 0; byte < 8; ++byte) {
    magic[byte] = static_cast<std::uint8_t>(current >> (8 * byte));
  }
  const auto at = std::search(bytes.begin(), bytes.end(), magic, magic + 8);
  if (at == bytes.end()) return false;
  *at = static_cast<std::uint8_t>(version);
  return WriteCheckpointFile(path, tag, bytes).ok();
}

/// Rewrites the heavy-hitters grid magic (`HIMPHHS3`) in the `path.grid`
/// file at `path` to layout `version`: '1' and '2' are earlier builds'
/// grids (reservoirs, then samples of whole tuples), any other digit no
/// layout at all.
inline bool RewriteGridMagicVersion(const std::string& path, char version) {
  return RewriteMagicVersion(path, CheckpointTag::kServiceGrid,
                             0x48494d5048485333ULL, version);
}

/// Rewrites the registry stripe magic (`HIMPSRG5`) of the service stripe
/// file at `stripe_path` to an earlier build's layout digit ('1' to
/// '4'). Only the magic changes: a restore refuses those layouts on it.
inline bool RewriteStripeMagicVersion(const std::string& stripe_path,
                                      char version) {
  return RewriteMagicVersion(stripe_path, CheckpointTag::kServiceStripe,
                             0x48494d5053524735ULL, version);
}

}  // namespace test
}  // namespace himpact

#endif  // HIMPACT_TESTS_FAULT_INJECTION_H_
