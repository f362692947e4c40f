#include "storage/segment.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "common/envelope.h"
#include "fault/fault.h"
#include "storage/codec.h"

namespace himpact {
namespace {

constexpr std::uint64_t kSegmentMagic = 0x31474553504D4948ULL;  // HIMPSEG1
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::uint32_t kSegmentFooterMagic = 0x31474553u;  // SEG1
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kRecordEntryBytes = 20;
constexpr std::size_t kBlockEntryBytes = 32;
constexpr std::size_t kFooterBytes = 16;

std::uint32_t ReadU32(const std::uint8_t* p) {
  std::uint32_t out = 0;
  for (int b = 0; b < 4; ++b) out |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return out;
}

std::uint64_t ReadU64(const std::uint8_t* p) {
  std::uint64_t out = 0;
  for (int b = 0; b < 8; ++b) out |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return out;
}

}  // namespace

SegmentWriter::SegmentWriter(std::uint64_t stripe, std::uint64_t generation,
                             std::size_t block_bytes)
    : stripe_(stripe),
      generation_(generation),
      block_bytes_(block_bytes == 0 ? kSegmentBlockBytes : block_bytes) {}

void SegmentWriter::Add(std::uint64_t id, std::vector<std::uint8_t> record) {
  auto [it, inserted] = records_.try_emplace(id);
  if (!inserted) pending_bytes_ -= it->second.size();
  pending_bytes_ += record.size();
  it->second = std::move(record);
}

std::vector<std::uint8_t> SegmentWriter::Seal() {
  // Pack records (already in id order — std::map) into raw blocks.
  std::vector<std::vector<std::uint8_t>> raw_blocks;
  std::vector<SegmentRecord> records;
  records.reserve(records_.size());
  for (auto& [id, bytes] : records_) {
    if (raw_blocks.empty() ||
        (!raw_blocks.back().empty() &&
         raw_blocks.back().size() + bytes.size() > block_bytes_)) {
      raw_blocks.emplace_back();
    }
    std::vector<std::uint8_t>& block = raw_blocks.back();
    SegmentRecord record;
    record.id = id;
    record.block = static_cast<std::uint32_t>(raw_blocks.size() - 1);
    record.offset = static_cast<std::uint32_t>(block.size());
    record.len = static_cast<std::uint32_t>(bytes.size());
    records.push_back(record);
    block.insert(block.end(), bytes.begin(), bytes.end());
  }
  records_.clear();
  pending_bytes_ = 0;

  ByteWriter out;
  out.U64(kSegmentMagic);
  out.U32(kSegmentVersion);
  out.U32(0);  // reserved
  out.U64(stripe_);
  out.U64(generation_);
  out.U64(records.size());
  out.U64(raw_blocks.size());

  // Compress each raw block; identical raw blocks (content hash, then a
  // byte compare to rule out collisions) alias the first copy's data.
  std::vector<SegmentBlockMeta> metas(raw_blocks.size());
  std::unordered_map<std::uint64_t, std::size_t> first_by_hash;
  for (std::size_t b = 0; b < raw_blocks.size(); ++b) {
    SegmentBlockMeta& meta = metas[b];
    meta.raw_len = static_cast<std::uint32_t>(raw_blocks[b].size());
    meta.content_hash = Fnv1a64(raw_blocks[b]);
    const auto seen = first_by_hash.find(meta.content_hash);
    if (seen != first_by_hash.end() &&
        raw_blocks[seen->second] == raw_blocks[b]) {
      const SegmentBlockMeta& prior = metas[seen->second];
      meta.data_offset = prior.data_offset;
      meta.comp_len = prior.comp_len;
      meta.crc32 = prior.crc32;
      continue;
    }
    first_by_hash.emplace(meta.content_hash, b);
    const std::vector<std::uint8_t> comp = ZrleEncode(raw_blocks[b]);
    meta.data_offset = out.buffer().size();
    meta.comp_len = static_cast<std::uint32_t>(comp.size());
    meta.crc32 = Crc32(comp);
    out.Bytes(comp.data(), comp.size());
  }

  // Tables, then a footer whose CRC covers header + tables (blocks carry
  // their own CRCs, verified lazily on page-in).
  ByteWriter tables;
  for (const SegmentRecord& record : records) {
    tables.U64(record.id);
    tables.U32(record.block);
    tables.U32(record.offset);
    tables.U32(record.len);
  }
  for (const SegmentBlockMeta& meta : metas) {
    tables.U64(meta.data_offset);
    tables.U32(meta.comp_len);
    tables.U32(meta.raw_len);
    tables.U64(meta.content_hash);
    tables.U32(meta.crc32);
    tables.U32(0);  // reserved
  }
  ByteWriter covered;
  covered.Bytes(out.buffer().data(), kHeaderBytes);
  covered.Bytes(tables.buffer().data(), tables.buffer().size());
  out.Bytes(tables.buffer().data(), tables.buffer().size());
  out.U32(Crc32(covered.buffer()));
  out.U32(kSegmentFooterMagic);
  out.U64(out.buffer().size() + 8);  // total_len including this field
  return out.Take();
}

StatusOr<SegmentReader> SegmentReader::Open(const std::string& path) {
  StatusOr<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  SegmentReader reader;
  reader.map_ = std::move(map).value();
  reader.size_ = reader.map_.size();
  Status parsed = reader.Parse();
  if (!parsed.ok()) {
    return Status(parsed.code(), path + ": " + parsed.message());
  }
  return reader;
}

StatusOr<SegmentReader> SegmentReader::FromBytes(
    std::vector<std::uint8_t> bytes) {
  SegmentReader reader;
  reader.owned_ = std::move(bytes);
  reader.size_ = reader.owned_.size();
  Status parsed = reader.Parse();
  if (!parsed.ok()) return parsed;
  return reader;
}

Status SegmentReader::Parse() {
  const std::uint8_t* p = data();
  if (size_ < kHeaderBytes + kFooterBytes) {
    return Status::InvalidArgument("segment shorter than header + footer");
  }
  const std::uint8_t* footer = p + size_ - kFooterBytes;
  if (ReadU32(footer + 4) != kSegmentFooterMagic) {
    return Status::InvalidArgument("bad segment footer magic");
  }
  if (ReadU64(footer + 8) != size_) {
    return Status::InvalidArgument("segment truncated (total_len mismatch)");
  }
  if (ReadU64(p) != kSegmentMagic) {
    return Status::InvalidArgument("bad segment magic");
  }
  if (ReadU32(p + 8) != kSegmentVersion) {
    return Status::InvalidArgument("unknown segment version");
  }
  stripe_ = ReadU64(p + 16);
  generation_ = ReadU64(p + 24);
  const std::uint64_t num_records = ReadU64(p + 32);
  const std::uint64_t num_blocks = ReadU64(p + 40);
  const std::uint64_t tables_bytes =
      num_records * kRecordEntryBytes + num_blocks * kBlockEntryBytes;
  if (num_records > size_ / kRecordEntryBytes ||
      num_blocks > size_ / kBlockEntryBytes ||
      kHeaderBytes + tables_bytes + kFooterBytes > size_) {
    return Status::InvalidArgument("segment tables overrun the file");
  }
  const std::size_t tables_offset =
      size_ - kFooterBytes - static_cast<std::size_t>(tables_bytes);

  std::vector<std::uint8_t> covered(p, p + kHeaderBytes);
  covered.insert(covered.end(), p + tables_offset, p + size_ - kFooterBytes);
  if (Crc32(covered) != ReadU32(footer)) {
    return Status::InvalidArgument("segment table CRC mismatch");
  }

  const std::uint8_t* cursor = p + tables_offset;
  blocks_.resize(static_cast<std::size_t>(num_blocks));
  records_.resize(static_cast<std::size_t>(num_records));
  for (SegmentRecord& record : records_) {
    record.id = ReadU64(cursor);
    record.block = ReadU32(cursor + 8);
    record.offset = ReadU32(cursor + 12);
    record.len = ReadU32(cursor + 16);
    cursor += kRecordEntryBytes;
  }
  for (SegmentBlockMeta& meta : blocks_) {
    meta.data_offset = ReadU64(cursor);
    meta.comp_len = ReadU32(cursor + 8);
    meta.raw_len = ReadU32(cursor + 12);
    meta.content_hash = ReadU64(cursor + 16);
    meta.crc32 = ReadU32(cursor + 24);
    cursor += kBlockEntryBytes;
    if (meta.data_offset < kHeaderBytes ||
        meta.data_offset + meta.comp_len > tables_offset) {
      return Status::InvalidArgument("segment block overruns the data region");
    }
  }
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const SegmentRecord& record = records_[r];
    if (r > 0 && records_[r - 1].id >= record.id) {
      return Status::InvalidArgument("segment record table not sorted");
    }
    if (record.block >= blocks_.size() ||
        static_cast<std::uint64_t>(record.offset) + record.len >
            blocks_[record.block].raw_len) {
      return Status::InvalidArgument("segment record overruns its block");
    }
  }
  return Status::OK();
}

const SegmentRecord* SegmentReader::Find(std::uint64_t id) const {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), id,
      [](const SegmentRecord& record, std::uint64_t key) {
        return record.id < key;
      });
  if (it == records_.end() || it->id != id) return nullptr;
  return &*it;
}

StatusOr<std::vector<std::uint8_t>> SegmentReader::ReadBlock(
    std::size_t index) const {
  if (index >= blocks_.size()) {
    return Status::InvalidArgument("segment block index out of range");
  }
  // The page-in probe: an armed `segment-map-fail` models the mapped
  // page being unreadable (I/O error surfacing through the mapping).
  if (FaultRegistry::Global().AnyArmed() &&
      FaultRegistry::Global().ShouldFire(FaultPoint::kSegmentMapFail)) {
    return Status::Internal("injected segment-map-fail on block read");
  }
  const SegmentBlockMeta& meta = blocks_[index];
  const std::uint8_t* comp = data() + meta.data_offset;
  if (Crc32(comp, meta.comp_len) != meta.crc32) {
    return Status::InvalidArgument("segment block CRC mismatch");
  }
  return ZrleDecode(comp, meta.comp_len, meta.raw_len);
}

StatusOr<std::vector<std::uint8_t>> SegmentReader::ReadRecord(
    std::uint64_t id) const {
  const SegmentRecord* record = Find(id);
  if (record == nullptr) {
    return Status::Unavailable("record not in segment");
  }
  StatusOr<std::vector<std::uint8_t>> block = ReadBlock(record->block);
  if (!block.ok()) return block.status();
  const std::vector<std::uint8_t>& raw = block.value();
  if (static_cast<std::size_t>(record->offset) + record->len > raw.size()) {
    return Status::InvalidArgument("segment record overruns its block");
  }
  return std::vector<std::uint8_t>(raw.begin() + record->offset,
                                   raw.begin() + record->offset + record->len);
}

}  // namespace himpact
