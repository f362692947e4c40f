#include "io/checkpoint.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.h"

namespace himpact {
namespace {

/// Directory part of `path` ("." when there is no separator), for the
/// post-rename directory fsync that makes the new name itself durable.
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status IoError(const std::string& action, const std::string& path) {
  return Status::Internal(action + " " + path + ": " + std::strerror(errno));
}

/// Flushes the directory entry of `path`, making a rename or unlink of it
/// durable.
void SyncDirectoryOf(const std::string& path) {
  const int dir_fd = ::open(DirectoryOf(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace

StatusOr<std::vector<std::uint8_t>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::Unavailable("no such file: " + path);
    }
    return IoError("open", path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = IoError("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  ::close(fd);
  return bytes;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", tmp_path);

  // Fault hook: a firing `torn-checkpoint` writes only half the payload
  // to the temp file and fails before the rename, modeling a crash (or
  // full disk) mid-write. The destination keeps its previous good
  // contents — which is exactly the crash-safety property restores rely
  // on — and the error is retryable (see fault/backoff.h).
  if (FaultRegistry::Global().AnyArmed() &&
      FaultRegistry::Global().ShouldFire(FaultPoint::kTornCheckpoint)) {
    const std::size_t half = bytes.size() / 2;
    std::size_t torn_written = 0;
    while (torn_written < half) {
      const ssize_t n =
          ::write(fd, bytes.data() + torn_written, half - torn_written);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      torn_written += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return Status::Internal("injected torn checkpoint write: " + tmp_path);
  }

  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = IoError("write", tmp_path);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return status;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status status = IoError("fsync", tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    const Status status = IoError("close", tmp_path);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status = IoError("rename", tmp_path);
    ::unlink(tmp_path.c_str());
    return status;
  }
  // The rename is only durable once the directory entry is flushed too.
  SyncDirectoryOf(path);
  return Status::OK();
}

Status RemoveFileDurably(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return errno == ENOENT ? Status::OK() : IoError("unlink", path);
  }
  SyncDirectoryOf(path);
  return Status::OK();
}

Status WriteCheckpointFile(const std::string& path, CheckpointTag tag,
                           const std::vector<std::uint8_t>& payload) {
  return WriteFileAtomic(path, SealEnvelope(tag, payload));
}

StatusOr<std::vector<std::uint8_t>> ReadCheckpointFile(
    const std::string& path, CheckpointTag expected_tag) {
  StatusOr<std::vector<std::uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return OpenEnvelope(bytes.value(), expected_tag);
}

}  // namespace himpact
