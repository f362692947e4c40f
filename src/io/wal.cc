#include "io/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "common/envelope.h"
#include "fault/fault.h"
#include "io/checkpoint.h"

namespace himpact {
namespace {

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

/// Largest payload a scanner will believe. Generous versus the few
/// dozen bytes a real record needs; mostly here so a bit flip in the
/// length field cannot drive a multi-gigabyte allocation.
constexpr std::uint64_t kMaxRecordPayload = 1ull << 30;

std::string StrError(int err) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s (errno %d)",
                std::strerror(err), err);
  return buffer;
}

std::string SegmentPath(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + kSegmentPrefix + std::to_string(seq) + kSegmentSuffix;
}

/// `wal-<seq>.log` -> seq; nullopt for any other name.
bool ParseSegmentName(const char* name, std::uint64_t* seq) {
  const std::size_t prefix_len = sizeof(kSegmentPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSegmentSuffix) - 1;
  const std::size_t len = std::strlen(name);
  if (len <= prefix_len + suffix_len) return false;
  if (std::memcmp(name, kSegmentPrefix, prefix_len) != 0) return false;
  if (std::memcmp(name + len - suffix_len, kSegmentSuffix, suffix_len) != 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      std::strtoull(name + prefix_len, &end, 10);
  if (errno != 0 || end != name + len - suffix_len) return false;
  *seq = value;
  return true;
}

/// Every `wal-<seq>.log` in `dir`, ascending by seq. Missing directory
/// yields an empty list (recovery treats "no WAL" as "nothing to do").
StatusOr<std::vector<std::pair<std::uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) return segments;
    return Status::Internal("opendir(" + dir + "): " + StrError(errno));
  }
  while (const struct dirent* entry = ::readdir(handle)) {
    std::uint64_t seq = 0;
    if (ParseSegmentName(entry->d_name, &seq)) {
      segments.emplace_back(seq, SegmentPath(dir, seq));
    }
  }
  ::closedir(handle);
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Parses one envelope frame at `data + pos`, reading the header in
/// place. Returns true and fills `payload_len` when the frame (header
/// and CRC-verified payload) is intact; false on any damage —
/// truncation, bad magic/version/tag, absurd length, CRC mismatch —
/// which recovery treats as the torn point, not an error.
bool FrameAt(const std::vector<std::uint8_t>& data, std::size_t pos,
             std::size_t* payload_len) {
  if (data.size() - pos < kEnvelopeHeaderBytes) return false;
  ByteReader reader(
      std::span<const std::uint8_t>(data).subspan(pos, kEnvelopeHeaderBytes));
  std::uint32_t magic = 0, version = 0, tag = 0, crc = 0;
  std::uint64_t length = 0;
  if (!reader.U32(&magic) || !reader.U32(&version) || !reader.U32(&tag) ||
      !reader.U64(&length) || !reader.U32(&crc)) {
    return false;
  }
  if (magic != kEnvelopeMagic || version != kEnvelopeVersion ||
      tag != static_cast<std::uint32_t>(CheckpointTag::kWalRecord) ||
      length > kMaxRecordPayload) {
    return false;
  }
  if (data.size() - pos - kEnvelopeHeaderBytes < length) return false;
  if (Crc32(data.data() + pos + kEnvelopeHeaderBytes,
            static_cast<std::size_t>(length)) != crc) {
    return false;
  }
  *payload_len = static_cast<std::size_t>(length);
  return true;
}

}  // namespace

bool ParseWalFsyncText(const char* text, WalFsync* out) {
  if (std::strcmp(text, "always") == 0) {
    *out = WalFsync::kAlways;
  } else if (std::strcmp(text, "group") == 0) {
    *out = WalFsync::kGroup;
  } else if (std::strcmp(text, "never") == 0) {
    *out = WalFsync::kNever;
  } else {
    return false;
  }
  return true;
}

const char* WalFsyncName(WalFsync policy) {
  switch (policy) {
    case WalFsync::kAlways: return "always";
    case WalFsync::kGroup: return "group";
    case WalFsync::kNever: return "never";
  }
  return "group";
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const WalOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL directory must not be empty");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir(" + options.dir + "): " + StrError(errno));
  }
  auto segments_or = ListSegments(options.dir);
  if (!segments_or.ok()) return segments_or.status();
  std::uint64_t next_seq = 1;
  if (!segments_or.value().empty()) {
    next_seq = segments_or.value().back().first + 1;
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(options));
  writer->seq_ = next_seq;
  Status opened = writer->OpenSegment();
  if (!opened.ok()) return opened;
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (!degraded_ && !buffer_.empty()) {
      (void)WriteAll(buffer_.data(), buffer_.size());
    }
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenSegment() {
  const std::string path = SegmentPath(options_.dir, seq_);
  // O_EXCL: the name was chosen past every existing seq, so a collision
  // means another writer owns this directory — refuse, don't clobber.
  fd_ = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("open(" + path + "): " + StrError(errno));
  }
  return Status::OK();
}

Status WalWriter::WriteAll(const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("WAL write: " + StrError(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::SyncFd() {
  if (::fsync(fd_) != 0) {
    return Status::Internal("WAL fsync: " + StrError(errno));
  }
  ++counters_.fsyncs;
  return Status::OK();
}

void WalWriter::Degrade() {
  degraded_ = true;
  buffer_.clear();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::Append(const std::vector<std::uint8_t>& payload) {
  if (degraded_) {
    // Already loudly degraded; keep the hot path quiet but counted.
    ++counters_.append_failures;
    return Status::OK();
  }
  const std::vector<std::uint8_t> framed =
      SealEnvelope(CheckpointTag::kWalRecord, payload);

  if (FaultRegistry::Global().ShouldFire(FaultPoint::kWalAppendFail)) {
    // Best-effort: land what was already grouped, then give up the log.
    if (!buffer_.empty()) (void)WriteAll(buffer_.data(), buffer_.size());
    ::fsync(fd_);
    ++counters_.append_failures;
    Degrade();
    return Status::Internal("WAL append failed (injected)");
  }
  if (FaultRegistry::Global().ShouldFire(FaultPoint::kWalTornTail)) {
    // The power-cut shape: everything before this record intact, this
    // record cut mid-frame. Flush the group first so the tear is the
    // newest thing on disk, exactly like a real crash.
    if (!buffer_.empty()) (void)WriteAll(buffer_.data(), buffer_.size());
    (void)WriteAll(framed.data(), framed.size() / 2);
    ::fsync(fd_);
    ++counters_.append_failures;
    Degrade();
    return Status::Internal("WAL append torn (injected)");
  }

  Status result = Status::OK();
  if (options_.fsync == WalFsync::kAlways) {
    result = WriteAll(framed.data(), framed.size());
    if (result.ok()) result = SyncFd();
    if (result.ok()) ++counters_.flushes;
  } else {
    if (buffer_.empty()) buffer_oldest_nanos_ = FaultClock::NowNanos();
    buffer_.insert(buffer_.end(), framed.begin(), framed.end());
    const std::uint64_t age_ms =
        (FaultClock::NowNanos() - buffer_oldest_nanos_) / 1'000'000ull;
    if (buffer_.size() >= options_.group_bytes || age_ms >= options_.group_ms) {
      result = Flush();
    }
  }
  if (!result.ok()) {
    ++counters_.append_failures;
    Degrade();
    return result;
  }
  ++counters_.records;
  counters_.bytes += framed.size();
  return Status::OK();
}

Status WalWriter::Flush() {
  if (degraded_ || buffer_.empty()) return Status::OK();
  Status result = WriteAll(buffer_.data(), buffer_.size());
  if (result.ok() && options_.fsync != WalFsync::kNever) result = SyncFd();
  if (!result.ok()) {
    ++counters_.append_failures;
    Degrade();
    return result;
  }
  buffer_.clear();
  ++counters_.flushes;
  return Status::OK();
}

Status WalWriter::Rotate() {
  // The caller just landed a checkpoint covering every record appended
  // so far (the session appends before it saves), so the whole log —
  // including the open segment — is reclaimable.
  if (!degraded_) {
    Status flushed = Flush();
    if (!flushed.ok()) return flushed;  // Flush degraded us; fall through
  }
  // No fsync before the close: every segment, this one included, is
  // unlinked just below, and syncing a file that is about to be deleted
  // only buys an expensive unlink.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  auto segments_or = ListSegments(options_.dir);
  if (segments_or.ok()) {
    for (const auto& segment : segments_or.value()) {
      if (segment.first <= seq_) ::unlink(segment.second.c_str());
    }
  }
  ++counters_.rotations;
  if (degraded_) return Status::OK();  // space reclaimed; log stays lost
  ++seq_;
  Status opened = OpenSegment();
  if (!opened.ok()) {
    ++counters_.append_failures;
    Degrade();
  }
  return opened;
}

Status ScanWal(
    const std::string& dir, WalReplayStats* stats,
    const std::function<void(const std::vector<WalPayload>&)>& on_segment) {
  WalReplayStats local;
  WalReplayStats* out = stats != nullptr ? stats : &local;
  *out = WalReplayStats{};

  auto segments_or = ListSegments(dir);
  if (!segments_or.ok()) return segments_or.status();
  const auto& segments = segments_or.value();

  bool torn = false;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].second;
    if (torn) {
      // Frames after a corrupt one have unknowable boundaries, and
      // replaying a later segment without its predecessors would apply
      // a gapped suffix. Delete so a second recovery sees the same
      // clean prefix this one returns.
      struct stat info;
      if (::stat(path.c_str(), &info) == 0) {
        out->discarded_bytes += static_cast<std::uint64_t>(info.st_size);
      }
      ::unlink(path.c_str());
      ++out->dropped_segments;
      continue;
    }
    auto bytes_or = ReadFileBytes(path);
    if (!bytes_or.ok()) {
      // Unreadable segment: treat like a corrupt frame at offset 0.
      torn = true;
      ::unlink(path.c_str());
      ++out->dropped_segments;
      continue;
    }
    const std::vector<std::uint8_t>& data = bytes_or.value();
    ++out->segments;
    std::vector<WalPayload> payloads;
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t payload_len = 0;
      if (!FrameAt(data, pos, &payload_len)) break;
      payloads.emplace_back(data.data() + pos + kEnvelopeHeaderBytes,
                            payload_len);
      pos += kEnvelopeHeaderBytes + payload_len;
    }
    out->records += payloads.size();
    if (pos < data.size()) {
      // Torn tail: cut the file back to its last intact record so the
      // next scan (and the next next one) agrees with this one.
      torn = true;
      out->discarded_bytes += data.size() - pos;
      ++out->torn_tails;
      if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
        return Status::Internal("truncate(" + path + "): " + StrError(errno));
      }
    }
    if (!payloads.empty()) on_segment(payloads);
  }
  return Status::OK();
}

StatusOr<std::vector<std::vector<std::uint8_t>>> ReadWalRecords(
    const std::string& dir, WalReplayStats* stats) {
  std::vector<std::vector<std::uint8_t>> records;
  Status scanned =
      ScanWal(dir, stats, [&records](const std::vector<WalPayload>& payloads) {
        for (const WalPayload payload : payloads) {
          records.emplace_back(payload.begin(), payload.end());
        }
      });
  if (!scanned.ok()) return scanned;
  return records;
}

}  // namespace himpact
