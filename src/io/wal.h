#ifndef HIMPACT_IO_WAL_H_
#define HIMPACT_IO_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

/// \file
/// Write-ahead log: durable, replayable record stream between
/// checkpoints.
///
/// A WAL directory holds numbered segment files `wal-<seq>.log`, each a
/// back-to-back run of `kWalRecord` envelopes (`common/envelope.h`:
/// magic, version, tag, length, CRC32, payload). The payload encoding
/// is owned by the layer above (`service/wal_apply.h`); this layer only
/// guarantees that what `ScanWal` visits is a prefix of what
/// `WalWriter::Append` was given, ending at the last record whose frame
/// survived the crash intact.
///
/// Durability is tiered by fsync policy. Under `group` and `never`,
/// `Append` only copies the record into an in-process group buffer. The
/// session writes the group out (`Flush`) at the end of each batch of
/// requests, before any of the batch's replies leave
/// (`Durability::Commit`, service/durability.h), so no acknowledged
/// record is still in the buffer when the process dies:
///
///   policy  disk behavior                 process crash   power cut
///   always  write + fsync per append      nothing acked   nothing acked
///   group   buffer; write + fsync per     nothing acked   nothing acked
///           batch and by byte / age
///           watermark
///   never   buffer; write per batch and   nothing acked   the page cache
///           by watermark, fsync only on
///           rotate/close
///
/// The byte and age watermarks are backstops: they bound the buffer
/// within one large batch, and the records of a caller that never
/// flushes.
///
/// A crash can tear the final record mid-write; the reader repairs
/// rather than rejects: it scans each segment to the last valid record,
/// truncates the torn tail in place, and — because a corrupt frame
/// hides the boundaries of everything after it — drops any later
/// segments instead of replaying records whose predecessors are lost.
/// The log is therefore always a clean prefix of the applied stream,
/// never a sample of it.
///
/// Rotation is keyed to checkpoints: after a successful save to the
/// auto-checkpoint path `Durability::Save` (service/durability.h) calls
/// `Rotate()`, which deletes every segment and starts a fresh one, so
/// WAL size is bounded by checkpoint cadence. Replay
/// tolerates stale records (a crash between save and rotate) because
/// the apply layer gates each record on per-stripe sequence numbers.
///
/// Failure posture: any disk error while appending (or an armed
/// `wal-append-fail` / `wal-torn-tail` fault) moves the writer into a
/// permanent *degraded* state — appends become no-ops, the service
/// keeps running on checkpoint-only durability, and `health` reports
/// the downgrade. Durability loss is loud but never fatal.
/// See docs/CHECKPOINTS.md for the byte-level rules.

namespace himpact {

/// When appended records reach the disk platter.
enum class WalFsync : int {
  kAlways = 0,  ///< write + fsync every record
  kGroup = 1,   ///< flush + fsync when the group watermark trips
  kNever = 2,   ///< flush by watermark; fsync only on rotate/close
};

/// Parses "always" / "group" / "never"; false on anything else.
bool ParseWalFsyncText(const char* text, WalFsync* out);

/// The canonical flag spelling of `policy`.
const char* WalFsyncName(WalFsync policy);

struct WalOptions {
  std::string dir;                        ///< segment directory (must exist)
  WalFsync fsync = WalFsync::kGroup;
  std::uint64_t group_bytes = 64 * 1024;  ///< flush when buffered >= this
  std::uint64_t group_ms = 50;            ///< ... or oldest buffered age >=
};

struct WalCounters {
  std::uint64_t records = 0;          ///< records accepted by Append
  std::uint64_t bytes = 0;            ///< framed bytes accepted
  std::uint64_t flushes = 0;          ///< buffered groups written out
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t append_failures = 0;  ///< failed appends (incl. post-degrade)
};

/// Appends framed records to the newest segment of a WAL directory.
/// Single-writer: not thread-safe (the service session owns it).
class WalWriter {
 public:
  /// Opens `options.dir` for writing: scans existing `wal-<seq>.log`
  /// names and creates segment `<max seq>+1`, so an open never touches
  /// records a concurrent recovery might still want.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const WalOptions& options);

  /// Flushes, fsyncs, and closes the open segment.
  ~WalWriter();

  /// Frames `payload` as a `kWalRecord` envelope and appends it under
  /// the configured fsync policy. The frame is built in place at the end
  /// of the group buffer: header, payload, then the payload's CRC into
  /// the header, byte-identical to `SealEnvelope(kWalRecord, payload)`.
  /// Every policy and both WAL fault points take that one path; under
  /// `always` the buffer holds just this record and is written out at
  /// once. On any disk failure (or armed WAL fault) the writer degrades
  /// permanently and returns the error once; later appends are counted,
  /// dropped no-ops returning OK so the caller's hot path stays
  /// branch-free about durability.
  Status Append(std::span<const std::uint8_t> payload);

  /// Writes out the buffered group (fsync unless policy is `never`).
  Status Flush();

  /// Checkpoint hook: flushes, closes and deletes every segment in the
  /// directory, then opens a fresh one. A degraded writer only deletes
  /// (the records are covered by the checkpoint that triggered this;
  /// reclaiming the space is still correct) and stays degraded.
  Status Rotate();

  /// True once any append has failed; the service is running on
  /// checkpoint-only durability.
  bool degraded() const { return degraded_; }

  const WalCounters& counters() const { return counters_; }

  /// Sequence number of the open segment.
  std::uint64_t segment_seq() const { return seq_; }

  const WalOptions& options() const { return options_; }

 private:
  explicit WalWriter(WalOptions options) : options_(std::move(options)) {}

  Status OpenSegment();
  /// Writes out the group buffer (fsync unless the policy is `never`)
  /// and empties it; the caller degrades on failure.
  Status WriteGroup();
  Status WriteAll(const std::uint8_t* data, std::size_t size);
  Status SyncFd();
  void Degrade();

  WalOptions options_;
  int fd_ = -1;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> buffer_;        ///< pending group
  std::uint64_t buffer_oldest_nanos_ = 0;   ///< FaultClock stamp of first
  bool degraded_ = false;
  WalCounters counters_;
};

/// What recovery found (and fixed) in a WAL directory.
struct WalReplayStats {
  std::uint64_t segments = 0;           ///< segment files scanned
  std::uint64_t records = 0;            ///< valid records returned
  std::uint64_t torn_tails = 0;         ///< segments truncated in place
  std::uint64_t dropped_segments = 0;   ///< segments after a corrupt frame
  std::uint64_t discarded_bytes = 0;    ///< bytes cut or dropped
};

/// One intact record payload, viewed in place inside the segment
/// buffer `ScanWal` holds.
using WalPayload = std::span<const std::uint8_t>;

/// Repairs `dir` and visits its records one segment at a time, in
/// sequence order, so recovery holds one segment's bytes, not the
/// whole log. Each segment's intact payloads go to `on_segment` in log
/// order, as views valid only during the call; a segment with none is
/// not visited. The first damaged frame ends the log: its segment is
/// truncated to its last valid record (repair, not rejection) before
/// that segment is visited, and every later segment is deleted
/// unvisited, so a second recovery sees the same prefix. A missing or
/// empty directory is OK and visits nothing. Every segment before a
/// failing truncate has already been visited.
Status ScanWal(
    const std::string& dir, WalReplayStats* stats,
    const std::function<void(const std::vector<WalPayload>&)>& on_segment);

/// `ScanWal` collecting every payload into owned buffers.
StatusOr<std::vector<std::vector<std::uint8_t>>> ReadWalRecords(
    const std::string& dir, WalReplayStats* stats);

}  // namespace himpact

#endif  // HIMPACT_IO_WAL_H_
