#ifndef HIMPACT_STORAGE_SEGMENT_H_
#define HIMPACT_STORAGE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/mmap_file.h"

/// \file
/// Sealed, compressed, mmap-backed segment files.
///
/// A segment is an immutable container of keyed records: evicted users'
/// envelope-framed state in the registry's cold tier. Records are packed
/// into ZRLE-compressed blocks so a `get` CRC-checks and decompresses
/// one small block, not the file; the record and block tables live at
/// the tail and are small enough to keep in RAM, which is what makes the
/// in-memory id -> (block, offset) index cheap.
///
/// On-disk layout (all integers little-endian):
///
///   header   48B  magic, version, stripe, generation, counts
///   blocks        concatenated ZRLE-compressed blocks
///   records  20B/record   id u64, block u32, offset u32, len u32
///   blocks   32B/block    data_offset u64, comp_len u32, raw_len u32,
///                         content_hash u64 (FNV-1a of raw bytes),
///                         crc32 u32 (of compressed bytes), reserved u32
///   footer   16B  crc32 u32 (header ++ record table ++ block table),
///                 footer magic u32, total_len u64
///
/// Truncation is caught by `total_len`, table corruption by the footer
/// CRC, block corruption lazily by the per-block CRC on first page-in —
/// so opening a large segment validates only its tables. Identical raw
/// blocks within one file are written once and referenced twice
/// (content-hash dedup; the block table may alias data ranges). The
/// block size is the writer's choice and not part of the format: readers
/// take each block's `raw_len` from the table, so files cut at any size
/// (older 64 KiB blocks included) read back alike. See
/// docs/CHECKPOINTS.md for the compatibility rules.

namespace himpact {

/// Default block cut size (raw bytes) for segment writers. Small, because
/// a page-in pays the CRC and decode of the whole block around its
/// ~70 B record; 1 KiB keeps that to about fourteen records.
inline constexpr std::size_t kSegmentBlockBytes = 1u << 10;

/// One record-table entry.
struct SegmentRecord {
  std::uint64_t id = 0;
  std::uint32_t block = 0;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

/// One block-table entry.
struct SegmentBlockMeta {
  std::uint64_t data_offset = 0;
  std::uint32_t comp_len = 0;
  std::uint32_t raw_len = 0;
  std::uint64_t content_hash = 0;
  std::uint32_t crc32 = 0;
};

/// Accumulates keyed records and seals them into a segment image.
/// Adding the same id twice keeps the later record. One-shot: `Seal`
/// consumes the writer.
class SegmentWriter {
 public:
  SegmentWriter(std::uint64_t stripe, std::uint64_t generation,
                std::size_t block_bytes = kSegmentBlockBytes);

  /// Buffers one record (moved).
  void Add(std::uint64_t id, std::vector<std::uint8_t> record);

  bool empty() const { return records_.empty(); }
  std::size_t num_records() const { return records_.size(); }
  std::size_t pending_bytes() const { return pending_bytes_; }

  /// Builds the segment file image: packs records into blocks in id
  /// order, compresses, dedups identical raw blocks, appends tables and
  /// footer.
  std::vector<std::uint8_t> Seal();

 private:
  std::uint64_t stripe_;
  std::uint64_t generation_;
  std::size_t block_bytes_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> records_;
  std::size_t pending_bytes_ = 0;
};

/// Read access to a sealed segment, mmap-backed (`Open`) or over an
/// owned buffer (`FromBytes`). Validates header, footer, and tables up
/// front; block payloads are CRC-checked lazily on `ReadBlock`.
class SegmentReader {
 public:
  /// Maps and validates `path`. `kUnavailable` when missing,
  /// `kInvalidArgument` on any structural damage, `kInternal` on mmap
  /// failure (including an armed `segment-map-fail`).
  static StatusOr<SegmentReader> Open(const std::string& path);

  /// Validates an in-memory segment image (used by tests).
  static StatusOr<SegmentReader> FromBytes(std::vector<std::uint8_t> bytes);

  std::uint64_t stripe() const { return stripe_; }
  std::uint64_t generation() const { return generation_; }
  std::uint64_t file_bytes() const { return size_; }
  const std::vector<SegmentRecord>& records() const { return records_; }
  const std::vector<SegmentBlockMeta>& blocks() const { return blocks_; }

  /// Record-table entry for `id` (binary search), nullptr when absent.
  const SegmentRecord* Find(std::uint64_t id) const;

  /// Decompresses block `index` after verifying its CRC. The
  /// `segment-map-fail` fault point probes here (the page-in path).
  StatusOr<std::vector<std::uint8_t>> ReadBlock(std::size_t index) const;

  /// `Find` + `ReadBlock` + slice: the record's bytes, or
  /// `kUnavailable` when the id is not present.
  StatusOr<std::vector<std::uint8_t>> ReadRecord(std::uint64_t id) const;

 private:
  Status Parse();
  const std::uint8_t* data() const {
    return map_.valid() ? map_.data() : owned_.data();
  }

  MmapFile map_;
  std::vector<std::uint8_t> owned_;
  std::size_t size_ = 0;
  std::uint64_t stripe_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<SegmentRecord> records_;
  std::vector<SegmentBlockMeta> blocks_;
};

}  // namespace himpact

#endif  // HIMPACT_STORAGE_SEGMENT_H_
