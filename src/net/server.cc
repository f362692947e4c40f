#include "net/server.h"

#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <unistd.h>

#include "fault/fault.h"
#include "net/wire.h"

namespace himpact {
namespace {

// Wake-pipe command bytes (written from signal handlers, so the whole
// control channel is single bytes).
constexpr char kWakeDrain = 'd';
constexpr char kWakeStop = 's';

// The one-line notice a shed connection gets before close, in the
// protocol's RESOURCE_EXHAUSTED wire spelling.
constexpr char kShedReply[] = "RESOURCE_EXHAUSTED shed\n";

constexpr int kMaxEpollEvents = 256;

// Sweep cadence: the epoll_wait timeout, which bounds how stale a
// deadline check can be. 50ms is far under every default deadline.
constexpr int kSweepMillis = 50;

// Input pulled from one socket per pump pass before replies are flushed
// and other connections get a turn. Bounds per-connection memory and
// keeps one flooding client from starving the rest of the loop.
constexpr std::size_t kMaxReadPerPass = 1 << 16;

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

NetServer::NetServer(const NetServerOptions& options, LineHandler handler,
                     FrameHandler frame_handler)
    : options_(options),
      handler_(std::move(handler)),
      frame_handler_(std::move(frame_handler)) {}

NetServer::~NetServer() = default;

StatusOr<std::unique_ptr<NetServer>> NetServer::Create(
    const NetServerOptions& options, LineHandler handler,
    FrameHandler frame_handler) {
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.limits.write_resume_bytes > options.limits.write_buffer_limit) {
    return Status::InvalidArgument(
        "write_resume_bytes must not exceed write_buffer_limit");
  }
  std::unique_ptr<NetServer> server(
      new NetServer(options, std::move(handler), std::move(frame_handler)));
  const Status init = server->Init();
  if (!init.ok()) return init;
  return server;
}

Status NetServer::Init() {
  auto listener = CreateListener(options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  auto port = BoundPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = port.value();

  epoll_ = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) return ErrnoStatus("epoll_create1");

  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) {
    return ErrnoStatus("pipe2");
  }
  wake_read_ = UniqueFd(wake[0]);
  wake_write_ = UniqueFd(wake[1]);

  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = listener_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &event) != 0) {
    return ErrnoStatus("epoll_ctl(listener)");
  }
  event.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_read_.get(), &event) != 0) {
    return ErrnoStatus("epoll_ctl(wake)");
  }
  return Status::OK();
}

void NetServer::RequestDrain() {
  // write(2) on the pipe is async-signal-safe; a full pipe means a wake
  // is already pending, which is just as good.
  (void)!::write(wake_write_.get(), &kWakeDrain, 1);
}

void NetServer::Stop() {
  (void)!::write(wake_write_.get(), &kWakeStop, 1);
}

NetServerCounters NetServer::Counters() const {
  NetServerCounters counters;
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.shed_at_accept = shed_at_accept_.load(std::memory_order_relaxed);
  counters.evicted_idle = evicted_idle_.load(std::memory_order_relaxed);
  counters.killed_oversize = killed_oversize_.load(std::memory_order_relaxed);
  counters.killed_bad_magic = killed_bad_magic_.load(std::memory_order_relaxed);
  counters.binary_connections =
      binary_connections_.load(std::memory_order_relaxed);
  counters.drained = drained_.load(std::memory_order_relaxed);
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  counters.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  counters.connections = open_connections_.load(std::memory_order_relaxed);
  return counters;
}

std::string NetServer::CountersJson() const {
  const NetServerCounters c = Counters();
  std::string json = "{";
  const auto field = [&json](const char* name, std::uint64_t value,
                             bool first = false) {
    if (!first) json += ",";
    json += "\"";
    json += name;
    json += "\":";
    json += std::to_string(value);
  };
  field("connections", c.connections, /*first=*/true);
  field("accepted", c.accepted);
  field("shed_at_accept", c.shed_at_accept);
  field("evicted_idle", c.evicted_idle);
  field("killed_oversize", c.killed_oversize);
  field("killed_bad_magic", c.killed_bad_magic);
  field("binary_connections", c.binary_connections);
  field("drained", c.drained);
  field("requests", c.requests);
  field("partial_writes", c.partial_writes);
  field("accept_failures", c.accept_failures);
  json += "}";
  return json;
}

Status NetServer::Run() {
  epoll_event events[kMaxEpollEvents];
  last_sweep_nanos_ = FaultClock::NowNanos();
  for (;;) {
    const int n =
        ::epoll_wait(epoll_.get(), events, kMaxEpollEvents, kSweepMillis);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("epoll_wait");
    }
    std::uint64_t now = FaultClock::NowNanos();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listener_.get() && listener_.valid()) {
        AcceptBatch(now);
        continue;
      }
      if (fd == wake_read_.get()) {
        char commands[64];
        ssize_t got = 0;
        bool stop = false;
        bool drain = false;
        while ((got = ::read(wake_read_.get(), commands, sizeof(commands))) >
               0) {
          for (ssize_t j = 0; j < got; ++j) {
            stop |= commands[j] == kWakeStop;
            drain |= commands[j] == kWakeDrain;
          }
        }
        if (stop) stopped_ = true;
        if (drain && !draining_) BeginDrain(now);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(fd);
        continue;
      }
      // Both readable and writable land in the same pump: it flushes,
      // unpauses below the resume watermark, and pulls new input.
      PumpConnection(conn, now);
    }
    if (stopped_) return Status::OK();
    now = FaultClock::NowNanos();
    if (now - last_sweep_nanos_ >=
        static_cast<std::uint64_t>(kSweepMillis) * 1000 * 1000) {
      SweepDeadlines(now);
      last_sweep_nanos_ = now;
    }
    if (draining_ && connections_.empty()) {
      if (drain_callback_) drain_callback_();
      return Status::OK();
    }
  }
}

void NetServer::AcceptBatch(std::uint64_t now) {
  if (draining_) return;
  FaultRegistry& faults = FaultRegistry::Global();
  for (;;) {
    if (faults.AnyArmed() && faults.ShouldFire(FaultPoint::kNetAcceptFail)) {
      // Simulated transient accept failure (EMFILE-style): abandon this
      // batch, count it, and leave the listener registered — pending
      // connections are picked up on the next wakeup.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto accepted = AcceptConnection(listener_.get());
    if (!accepted.ok()) {
      if (accepted.status().code() != StatusCode::kUnavailable) {
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    UniqueFd fd = std::move(accepted).value();
    // At the cap: replace the oldest sufficiently-idle connection
    // (slow-loris eviction) or shed the newcomer at the socket — either
    // way the overload never reaches the parser.
    if (connections_.size() >= options_.max_connections &&
        !EvictOldestIdle(now)) {
      ShedAtAccept(std::move(fd));
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    event.data.fd = fd.get();
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd.get(), &event) != 0) {
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const int raw = fd.get();
    connections_.emplace(raw, std::make_unique<Connection>(std::move(fd), now));
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
  }
}

void NetServer::ShedAtAccept(UniqueFd fd) {
  shed_at_accept_.fetch_add(1, std::memory_order_relaxed);
  // Best-effort notice; a full socket buffer on a brand-new connection
  // means a hostile client — just close.
  (void)!::write(fd.get(), kShedReply, sizeof(kShedReply) - 1);
}

bool NetServer::EvictOldestIdle(std::uint64_t now) {
  int victim_fd = -1;
  std::uint64_t victim_idle = 0;
  for (const auto& [fd, conn] : connections_) {
    const std::uint64_t idle = conn->IdleNanos(now);
    if (idle >= options_.evict_min_idle_nanos && idle > victim_idle) {
      victim_idle = idle;
      victim_fd = fd;
    }
  }
  if (victim_fd < 0) return false;
  evicted_idle_.fetch_add(1, std::memory_order_relaxed);
  CloseConnection(victim_fd);
  return true;
}

NetServer::ReadResult NetServer::ReadSome(Connection* conn,
                                          std::uint64_t now) {
  char chunk[16384];
  std::size_t total = 0;
  while (total < kMaxReadPerPass) {
    const ssize_t n = ::read(conn->fd(), chunk, sizeof(chunk));
    if (n > 0) {
      conn->AppendInput(chunk, static_cast<std::size_t>(n), now);
      total += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      conn->set_read_eof();
      return ReadResult::kDrained;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kDrained;
    CloseConnection(conn->fd());
    return ReadResult::kClosed;
  }
  return ReadResult::kBudgetSpent;  // more may be waiting
}

void NetServer::PumpConnection(Connection* conn, std::uint64_t now) {
  const int fd = conn->fd();
  bool socket_dry = false;
  for (;;) {
    DetectProtocol(conn);
    if (conn->protocol() == WireProtocol::kBinary) {
      ProcessFrames(conn);
    } else {
      ProcessLines(conn);
    }
    if (!FlushWrites(conn, now)) return;  // closed (or fully flushed quit)
    if (conn->paused()) {
      // Write backpressure: stop consuming input. Reading stops too, so
      // the kernel buffer fills and TCP pushes back on the sender. The
      // EPOLLOUT continuation re-enters this pump once replies drain.
      if (!conn->WriteResumable(options_.limits)) return;
      conn->set_paused(false);
      continue;  // answer the pipelined lines that were waiting
    }
    if (conn->close_after_flush() || conn->read_eof() || socket_dry) break;
    // A read that stopped at EAGAIN needs no second read to prove the
    // socket empty: edge-triggered epoll reports the next bytes to come.
    const ReadResult read = ReadSome(conn, now);
    if (read == ReadResult::kClosed) return;
    if (read == ReadResult::kDrained) socket_dry = true;
  }
  if (conn->read_eof() && !conn->close_after_flush() &&
      conn->PendingWriteBytes() == 0) {
    // Every complete request was answered and flushed. A truncated
    // trailing request (partial line or frame) can never complete after
    // EOF, so it is dropped and the connection closed now instead of
    // lingering until the idle sweep.
    CloseConnection(fd);
  }
}

void NetServer::DetectProtocol(Connection* conn) {
  if (conn->protocol() != WireProtocol::kUndetected) return;
  unsigned char first = 0;
  if (!conn->PeekByte(&first)) return;  // nothing received yet
  // 0xB1 is outside ASCII and no text verb starts with it, so one byte
  // decides. Without a frame handler the byte falls through to the text
  // parser, which answers it with ERR (the pre-binary behavior).
  if (first == kWireRequestMagic && frame_handler_) {
    conn->set_protocol(WireProtocol::kBinary);
    binary_connections_.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn->set_protocol(WireProtocol::kText);
  }
}

void NetServer::ProcessFrames(Connection* conn) {
  std::string frame;
  std::string reply;
  while (!conn->close_after_flush()) {
    if (conn->WriteBacklogged(options_.limits)) {
      conn->set_paused(true);
      return;
    }
    const FrameResult result = conn->NextFrame(options_.limits, &frame);
    if (result == FrameResult::kNone) return;
    if (result == FrameResult::kOversize) {
      // Same policy as an oversize text line: one structured error,
      // then the connection dies — judged on the declared length, so a
      // hostile prefix never grows the buffer.
      killed_oversize_.fetch_add(1, std::memory_order_relaxed);
      conn->QueueReply(EncodeErrorFrame("frame exceeds max request size"));
      conn->set_close_after_flush();
      return;
    }
    if (result == FrameResult::kBadMagic) {
      // The stream is desynced — frame boundaries are unrecoverable, so
      // unlike a bad version or opcode this cannot be answered
      // per-frame. One error frame, then close.
      killed_bad_magic_.fetch_add(1, std::memory_order_relaxed);
      conn->QueueReply(EncodeErrorFrame("bad frame magic: stream desynced"));
      conn->set_close_after_flush();
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    reply.clear();
    const bool keep = frame_handler_(frame, &reply);
    conn->QueueReply(reply);
    if (!keep) conn->set_close_after_flush();
  }
}

void NetServer::ProcessLines(Connection* conn) {
  std::string line;
  std::string reply;
  while (!conn->close_after_flush()) {
    if (conn->WriteBacklogged(options_.limits)) {
      conn->set_paused(true);
      return;
    }
    const LineResult result = conn->NextLine(options_.limits, &line);
    if (result == LineResult::kNone) return;
    if (result == LineResult::kOversize) {
      // One ERR, then the connection dies: an unbounded line is an
      // attack, not a request.
      killed_oversize_.fetch_add(1, std::memory_order_relaxed);
      conn->QueueReply("ERR line too long\n");
      conn->set_close_after_flush();
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    reply.clear();
    const bool keep = handler_(line, &reply);
    conn->QueueReply(reply);
    if (!keep) conn->set_close_after_flush();
  }
}

bool NetServer::FlushWrites(Connection* conn, std::uint64_t now) {
  FaultRegistry& faults = FaultRegistry::Global();
  while (conn->PendingWriteBytes() > 0) {
    std::size_t len = conn->PendingWriteBytes();
    bool injected = false;
    if (faults.AnyArmed() &&
        faults.ShouldFire(FaultPoint::kNetPartialWrite) && len > 1) {
      len = 1;  // clamp to force the continuation path
      injected = true;
    }
    const ssize_t n = ::write(conn->fd(), conn->PendingWriteData(), len);
    if (n > 0) {
      conn->ConsumeWritten(static_cast<std::size_t>(n), now);
      if (injected || static_cast<std::size_t>(n) < len) {
        partial_writes_.fetch_add(1, std::memory_order_relaxed);
      }
      if (injected && conn->PendingWriteBytes() > 0) {
        // Behave exactly like a kernel short write: keep the remainder
        // buffered and continue from EPOLLOUT. The socket never stopped
        // being writable, so force a fresh edge with an unconditional
        // re-MOD instead of waiting for one that will never come.
        ForceWriteEdge(conn);
        return true;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
      UpdateWriteInterest(conn);
      return true;
    }
    CloseConnection(conn->fd());
    return false;
  }
  UpdateWriteInterest(conn);
  if (conn->close_after_flush()) {
    CloseConnection(conn->fd());
    return false;
  }
  return true;
}

void NetServer::UpdateWriteInterest(Connection* conn) {
  const bool want = conn->PendingWriteBytes() > 0;
  if (want == conn->want_write()) return;
  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (want ? EPOLLOUT : 0u);
  event.data.fd = conn->fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd(), &event) == 0) {
    conn->set_want_write(want);
  }
}

void NetServer::ForceWriteEdge(Connection* conn) {
  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLET | EPOLLOUT;
  event.data.fd = conn->fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd(), &event) == 0) {
    conn->set_want_write(true);
  }
}

void NetServer::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  if (draining_) drained_.fetch_add(1, std::memory_order_relaxed);
  connections_.erase(it);  // closes the fd (UniqueFd)
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void NetServer::SweepDeadlines(std::uint64_t now) {
  // Collect first: closing mutates the map.
  std::vector<int> expired_requests;
  std::vector<int> expired_idle;
  std::vector<int> expired_drain;
  for (const auto& [fd, conn] : connections_) {
    if (draining_) {
      if (now > drain_deadline_nanos_) expired_drain.push_back(fd);
      continue;
    }
    if (options_.request_timeout_nanos != 0 &&
        conn->RequestAgeNanos(now) > options_.request_timeout_nanos) {
      expired_requests.push_back(fd);
      continue;
    }
    if (options_.idle_timeout_nanos != 0 &&
        conn->IdleNanos(now) > options_.idle_timeout_nanos) {
      expired_idle.push_back(fd);
    }
  }
  for (const int fd : expired_requests) {
    // Slow-loris kill: an incomplete request outlived its deadline.
    // One explicit notice in the connection's own framing, best effort,
    // then close.
    const auto it = connections_.find(fd);
    if (it != connections_.end() &&
        it->second->protocol() == WireProtocol::kBinary) {
      const std::string notice = EncodeErrorFrame("request deadline exceeded");
      (void)!::write(fd, notice.data(), notice.size());
    } else {
      constexpr char kNotice[] = "ERR request deadline exceeded\n";
      (void)!::write(fd, kNotice, sizeof(kNotice) - 1);
    }
    evicted_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(fd);
  }
  for (const int fd : expired_idle) {
    evicted_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(fd);
  }
  for (const int fd : expired_drain) {
    CloseConnection(fd);
  }
}

void NetServer::BeginDrain(std::uint64_t now) {
  draining_ = true;
  drain_deadline_nanos_ = now + options_.drain_timeout_nanos;
  // Stop accepting: deregister and close the listener so the kernel
  // refuses new connections outright.
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
  listener_.Reset();
  // Answer what is already buffered, then flush-and-close every
  // connection. Collect fds first: the pump may close and erase.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    DetectProtocol(conn);
    if (conn->protocol() == WireProtocol::kBinary) {
      ProcessFrames(conn);
    } else {
      ProcessLines(conn);
    }
    const auto again = connections_.find(fd);
    if (again == connections_.end()) continue;
    conn->set_close_after_flush();
    (void)FlushWrites(conn, now);  // closes once fully flushed
  }
}

}  // namespace himpact
