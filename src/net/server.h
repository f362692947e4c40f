#ifndef HIMPACT_NET_SERVER_H_
#define HIMPACT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "net/connection.h"
#include "net/socket.h"

/// \file
/// The async TCP front end: a single-threaded, edge-triggered epoll
/// event loop hosting both wire protocols on one port. The loop is
/// protocol-agnostic — a `LineHandler` maps one request line to one
/// reply block, a `FrameHandler` maps one binary frame to one reply
/// frame, and the connection's first byte picks which one runs
/// (docs/PROTOCOL.md "Protocol selection") — so the hardened
/// `service/protocol.h` parser and the `net/wire.h` codec stay the
/// core and the network layer adds only transport concerns:
///
///  * **Accept-storm batching + socket-level shedding.** Each listener
///    wakeup drains the whole accept queue. At the connection cap
///    (`max_connections` open) a newcomer either replaces the oldest
///    sufficiently-idle connection (slow-loris eviction) or is shed at
///    `accept()` with a one-line `RESOURCE_EXHAUSTED` notice — overload
///    never reaches the parser.
///  * **Bounded buffers + pipelining + partial writes.** Requests may
///    be pipelined; replies queue into a bounded write buffer with
///    partial-write continuation via EPOLLOUT. A connection whose
///    reply backlog passes the high watermark stops being read until
///    it drains (write backpressure), and a request that exceeds
///    `max_line_bytes` — a text line with no newline, or a binary
///    frame by declared size — kills the connection with one
///    structured error reply. A binary stream whose next byte is not
///    the request magic is desynced and killed the same way.
///  * **Lifecycle deadlines off `FaultClock`.** Per-connection idle
///    and per-request (partial-line age) deadlines read the fault-aware
///    clock, so `clock-skew` injection exercises the network timeouts
///    like every other timeout in the system. `net-accept-fail` and
///    `net-partial-write` (docs/ROBUSTNESS.md) inject into the loop
///    itself.
///  * **Graceful drain.** `RequestDrain()` (async-signal-safe — wire it
///    to SIGTERM) stops accepting, answers what is already buffered,
///    flushes every reply under a drain deadline, then invokes the
///    drain callback (final checkpoint) and returns from `Run`.
///
/// All counters are relaxed atomics: the loop is single-threaded, but
/// benches, tests, and the `health` verb read them from outside.

namespace himpact {

/// Transport configuration; defaults suit tests. `hstream_serve` maps
/// its `--listen` flag family onto this.
struct NetServerOptions {
  /// Loopback port to bind (0 = ephemeral; read back via `port()`).
  std::uint16_t port = 0;
  int backlog = 511;
  /// Hard connection cap. At the cap a new arrival evicts the oldest
  /// connection idle for at least `evict_min_idle_nanos`, or is shed at
  /// accept.
  std::size_t max_connections = 1024;
  ConnectionLimits limits;
  /// Eviction deadline for a connection with no read/write progress
  /// (0 disables).
  std::uint64_t idle_timeout_nanos = 60ull * 1000 * 1000 * 1000;
  /// Kill deadline for an incomplete request line (slow-loris writers;
  /// 0 disables).
  std::uint64_t request_timeout_nanos = 10ull * 1000 * 1000 * 1000;
  /// Minimum idleness before a cap-hit arrival may evict a connection.
  std::uint64_t evict_min_idle_nanos = 100ull * 1000 * 1000;
  /// How long a drain waits for replies to flush before force-closing.
  std::uint64_t drain_timeout_nanos = 2ull * 1000 * 1000 * 1000;
};

/// Loop counters; every lifecycle decision is counted, never silent.
struct NetServerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t shed_at_accept = 0;
  std::uint64_t evicted_idle = 0;
  std::uint64_t killed_oversize = 0;
  std::uint64_t killed_bad_magic = 0;
  std::uint64_t binary_connections = 0;  // connections latched to binary
  std::uint64_t drained = 0;
  std::uint64_t requests = 0;
  std::uint64_t partial_writes = 0;
  std::uint64_t accept_failures = 0;
  std::uint64_t connections = 0;  // currently open
};

/// Maps one request line to one reply block (must be '\n'-terminated).
/// Return false to close the connection after the reply flushes (quit).
using LineHandler = std::function<bool(const std::string& line,
                                       std::string* reply)>;

/// Maps one complete binary request frame (prelude + payload) to one
/// reply frame — never empty, even for undecodable frames (the handler
/// answers those with a structured error frame). Return false to close
/// after the reply flushes (quit).
using FrameHandler = std::function<bool(const std::string& frame,
                                        std::string* reply)>;

/// The epoll event loop. Create, then `Run()` on the owning thread;
/// `RequestDrain`/`Stop` may be called from any thread or signal
/// handler.
class NetServer {
 public:
  /// Binds and listens; the loop is not running yet. Without a
  /// `frame_handler` the server is text-only: a binary first byte is
  /// handed to the line handler as (malformed) text, which answers it
  /// with the text protocol's `ERR` — the pre-binary behavior.
  static StatusOr<std::unique_ptr<NetServer>> Create(
      const NetServerOptions& options, LineHandler handler,
      FrameHandler frame_handler = nullptr);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Runs the event loop until a drain completes or `Stop()`. Returns
  /// OK after a graceful drain/stop, an error if the loop itself broke.
  Status Run();

  /// Async-signal-safe graceful-shutdown request (one byte on the wake
  /// pipe): stop accepting, flush, invoke the drain callback, return.
  void RequestDrain();

  /// Async-signal-safe hard stop: close everything, no flush.
  void Stop();

  /// Runs `callback` on the loop thread after a drain fully flushed
  /// (the final-checkpoint hook). Set before `Run`.
  void set_drain_callback(std::function<void()> callback) {
    drain_callback_ = std::move(callback);
  }

  /// Relaxed snapshot of the loop counters.
  NetServerCounters Counters() const;

  /// The counters as one JSON object (the `health` verb's "net" field).
  std::string CountersJson() const;

 private:
  /// How a `ReadSome` pass ended: at EAGAIN or EOF (whatever it read),
  /// with its 64 KiB budget spent while bytes may remain, or by closing
  /// the connection on a read error.
  enum class ReadResult { kDrained, kBudgetSpent, kClosed };

  NetServer(const NetServerOptions& options, LineHandler handler,
            FrameHandler frame_handler);

  Status Init();
  void AcceptBatch(std::uint64_t now);
  void ShedAtAccept(UniqueFd fd);
  bool EvictOldestIdle(std::uint64_t now);
  ReadResult ReadSome(Connection* conn, std::uint64_t now);
  void PumpConnection(Connection* conn, std::uint64_t now);
  void DetectProtocol(Connection* conn);
  void ProcessLines(Connection* conn);
  void ProcessFrames(Connection* conn);
  bool FlushWrites(Connection* conn, std::uint64_t now);
  void UpdateWriteInterest(Connection* conn);
  void ForceWriteEdge(Connection* conn);
  void CloseConnection(int fd);
  void SweepDeadlines(std::uint64_t now);
  void BeginDrain(std::uint64_t now);

  NetServerOptions options_;
  LineHandler handler_;
  FrameHandler frame_handler_;
  std::function<void()> drain_callback_;

  UniqueFd listener_;
  UniqueFd epoll_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;
  std::uint16_t port_ = 0;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;
  bool stopped_ = false;
  std::uint64_t drain_deadline_nanos_ = 0;
  std::uint64_t last_sweep_nanos_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_at_accept_{0};
  std::atomic<std::uint64_t> evicted_idle_{0};
  std::atomic<std::uint64_t> killed_oversize_{0};
  std::atomic<std::uint64_t> killed_bad_magic_{0};
  std::atomic<std::uint64_t> binary_connections_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
  /// `connections_.size()`, mirrored for readers off the loop thread.
  std::atomic<std::uint64_t> open_connections_{0};
};

}  // namespace himpact

#endif  // HIMPACT_NET_SERVER_H_
