#include "common/envelope.h"

#include <array>

#include "common/bytes.h"

namespace himpact {
namespace {

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial, built
/// once on first use. `t[0]` is the classic bytewise table;
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

const CrcTables& Tables() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

/// Little-endian 32-bit load from bytes: endian-independent and free of
/// alignment assumptions (compilers fold it into one load on LE hosts).
std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = Tables();
  std::uint32_t crc = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(data);
    const std::uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t Crc32(const std::vector<std::uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

void WriteEnvelopeHeader(CheckpointTag tag, const std::uint8_t* payload,
                         std::size_t size, std::uint8_t* out) {
  StoreLe32(out, kEnvelopeMagic);
  StoreLe32(out + 4, kEnvelopeVersion);
  StoreLe32(out + 8, static_cast<std::uint32_t>(tag));
  StoreLe64(out + 12, size);
  StoreLe32(out + 20, Crc32(payload, size));
}

std::vector<std::uint8_t> SealEnvelope(
    CheckpointTag tag, const std::vector<std::uint8_t>& payload) {
  ByteWriter writer;
  writer.U32(kEnvelopeMagic);
  writer.U32(kEnvelopeVersion);
  writer.U32(static_cast<std::uint32_t>(tag));
  writer.U64(payload.size());
  writer.U32(Crc32(payload));
  writer.Bytes(payload.data(), payload.size());
  return writer.Take();
}

StatusOr<std::vector<std::uint8_t>> OpenEnvelope(
    const std::vector<std::uint8_t>& bytes, CheckpointTag expected_tag) {
  ByteReader reader(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t tag = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  if (!reader.U32(&magic) || !reader.U32(&version) || !reader.U32(&tag) ||
      !reader.U64(&length) || !reader.U32(&crc)) {
    return Status::InvalidArgument("checkpoint shorter than envelope header");
  }
  if (magic != kEnvelopeMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  if (version != kEnvelopeVersion) {
    return Status::InvalidArgument("unsupported checkpoint format version");
  }
  if (tag != static_cast<std::uint32_t>(expected_tag)) {
    return Status::InvalidArgument("checkpoint holds a different sketch type");
  }
  // Exactly `length` payload bytes must follow: a shorter buffer is a
  // truncated checkpoint, a longer one carries trailing garbage.
  if (length != reader.remaining()) {
    return Status::InvalidArgument(
        "checkpoint payload length mismatch (truncated or trailing bytes)");
  }
  std::vector<std::uint8_t> payload;
  if (!reader.Bytes(static_cast<std::size_t>(length), &payload)) {
    return Status::InvalidArgument("truncated checkpoint payload");
  }
  if (Crc32(payload) != crc) {
    return Status::InvalidArgument("checkpoint CRC32 mismatch");
  }
  return payload;
}

}  // namespace himpact
