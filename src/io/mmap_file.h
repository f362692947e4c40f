#ifndef HIMPACT_IO_MMAP_FILE_H_
#define HIMPACT_IO_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

/// \file
/// Read-only memory-mapped file with RAII unmapping.
///
/// The segment store (src/storage) keeps sealed segment files mapped so a
/// cold `get` pages in only the blocks it touches; the OS page cache —
/// not the registry's memory budget — owns the resident set. The
/// `kSegmentMapFail` fault point fires inside `Open` so every caller's
/// degraded path (floor answers, pending records, fresh sketches) is
/// testable without filling the disk or revoking permissions.

namespace himpact {

/// A read-only mapping of an entire file. Movable, not copyable; the
/// mapping is released on destruction.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. `kUnavailable` when the file does not exist,
  /// `kInternal` on open/stat/mmap failure (including an armed
  /// `segment-map-fail` fault). An empty file maps successfully with
  /// `size() == 0`.
  static StatusOr<MmapFile> Open(const std::string& path);

  /// Base of the mapping (nullptr for an empty or unopened file).
  const std::uint8_t* data() const { return data_; }

  /// Mapped length in bytes.
  std::size_t size() const { return size_; }

  /// True iff `Open` succeeded on this instance.
  bool valid() const { return valid_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool valid_ = false;
};

}  // namespace himpact

#endif  // HIMPACT_IO_MMAP_FILE_H_
