#ifndef HIMPACT_IO_CHECKPOINT_H_
#define HIMPACT_IO_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/envelope.h"
#include "common/status.h"

/// \file
/// Crash-safe file checkpointing for sketch state.
///
/// Writes are atomic: the envelope-framed bytes go to a temporary file in
/// the same directory, are fsync'd, and are renamed over the target, so a
/// crash mid-write leaves either the previous checkpoint or the new one —
/// never a torn file. Reads validate the envelope (magic, version, tag,
/// length, CRC32) before any sketch decoder sees a byte, and
/// `RestoreOrFallback` degrades to a freshly built estimator when the
/// checkpoint is missing or damaged, logging the reason. See
/// docs/CHECKPOINTS.md for the workflow.

namespace himpact {

/// Reads an entire file. `kUnavailable` when it does not exist,
/// `kInternal` on I/O errors.
StatusOr<std::vector<std::uint8_t>> ReadFileBytes(const std::string& path);

/// Atomically replaces `path` with `bytes`: write to `path.tmp.<pid>`,
/// fsync, rename, fsync the directory. `kInternal` on any I/O failure
/// (the temporary file is cleaned up).
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Unlinks `path` and, when it existed, fsyncs its directory so the
/// removal is durable. OK when `path` does not exist; `kInternal` when the
/// unlink fails.
Status RemoveFileDurably(const std::string& path);

/// Seals `payload` in a `tag`-typed envelope and writes it atomically.
Status WriteCheckpointFile(const std::string& path, CheckpointTag tag,
                           const std::vector<std::uint8_t>& payload);

/// Reads `path` and opens its envelope, requiring `expected_tag`.
/// `kUnavailable` when the file is missing; `kInvalidArgument` when the
/// envelope is damaged or of the wrong type.
StatusOr<std::vector<std::uint8_t>> ReadCheckpointFile(
    const std::string& path, CheckpointTag expected_tag);

/// Serializes `sketch` (via its `SerializeTo`) and checkpoints it.
template <typename Sketch>
Status CheckpointSketch(const std::string& path, CheckpointTag tag,
                        const Sketch& sketch) {
  ByteWriter writer;
  sketch.SerializeTo(writer);
  return WriteCheckpointFile(path, tag, writer.buffer());
}

/// Restores a sketch from a checkpoint file via its static
/// `DeserializeFrom`. Unlike raw deserialization — which permits chaining
/// several sketches in one buffer — a checkpoint file holds exactly one
/// sketch, so trailing bytes after the decode are rejected here.
template <typename Sketch>
StatusOr<Sketch> RestoreSketch(const std::string& path, CheckpointTag tag) {
  StatusOr<std::vector<std::uint8_t>> payload =
      ReadCheckpointFile(path, tag);
  if (!payload.ok()) return payload.status();
  ByteReader reader(payload.value());
  StatusOr<Sketch> sketch = Sketch::DeserializeFrom(reader);
  if (!sketch.ok()) return sketch.status();
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "checkpoint payload has trailing bytes after the sketch");
  }
  return sketch;
}

/// `RestoreSketch`, degrading to `make_fresh()` when the checkpoint is
/// missing or damaged. The failure is reported to `log` (pass nullptr to
/// silence) and the returned pair's second element is false, so callers
/// can distinguish a resumed run from a cold start.
template <typename Sketch, typename MakeFresh>
std::pair<Sketch, bool> RestoreOrFallback(const std::string& path,
                                          CheckpointTag tag,
                                          MakeFresh&& make_fresh,
                                          std::FILE* log) {
  StatusOr<Sketch> restored = RestoreSketch<Sketch>(path, tag);
  if (restored.ok()) {
    return {std::move(restored).value(), true};
  }
  if (log != nullptr) {
    std::fprintf(log, "checkpoint unavailable (%s): %s; starting fresh\n",
                 path.c_str(), restored.status().message().c_str());
  }
  return {make_fresh(), false};
}

}  // namespace himpact

#endif  // HIMPACT_IO_CHECKPOINT_H_
