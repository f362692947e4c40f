// The TCP front end under hostile load (net/server.h): a 10k-connection
// horde is fully accepted-or-shed without a crash, slow-loris writers
// are evicted while healthy clients keep getting answers, oversize
// lines die with exactly one ERR, injected accept failures and partial
// writes never corrupt replies or service state, and a drain flushes
// every pending reply before the loop returns.
//
// The server runs in-process on its own thread (Run() is the loop;
// RequestDrain/Stop are thread-safe), clients are plain blocking
// sockets driven from the test thread — except the horde, which is a
// poll(2)-driven non-blocking client state machine so ten thousand
// connections can be in flight from one thread.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"

namespace {

using namespace himpact;

constexpr std::uint64_t kMillis = 1000ull * 1000;
constexpr std::uint64_t kSeconds = 1000ull * kMillis;

// ---------------------------------------------------------------------
// In-process server harness: Run() on a dedicated thread, joined on
// destruction via Stop() (hard) or after a drain the test triggered.

struct ServerHarness {
  std::unique_ptr<NetServer> server;
  std::thread loop;
  Status run_status = Status::OK();
  bool joined = false;

  static NetServerOptions QuietOptions() {
    NetServerOptions options;
    options.port = 0;
    options.max_connections = 4;
    options.idle_timeout_nanos = 0;     // tests opt in to lifecycle kills
    options.request_timeout_nanos = 0;  // explicitly, with tight values
    options.evict_min_idle_nanos = 3600ull * kSeconds;
    return options;
  }

  void Start(const NetServerOptions& options, LineHandler handler,
             FrameHandler frame_handler = nullptr) {
    auto created = NetServer::Create(options, std::move(handler),
                                     std::move(frame_handler));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    server = std::move(created).value();
    loop = std::thread([this] { run_status = server->Run(); });
  }

  std::uint16_t port() const { return server->port(); }

  void Join() {
    if (joined) return;
    loop.join();
    joined = true;
  }

  ~ServerHarness() {
    if (server != nullptr && !joined) {
      server->Stop();
      Join();
    }
  }
};

// ---------------------------------------------------------------------
// Blocking test client.

class Client {
 public:
  explicit Client(std::uint16_t port, int recv_timeout_secs = 5) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval timeout{};
    timeout.tv_sec = recv_timeout_secs;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  int raw_fd() const { return fd_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until `count` newline-terminated lines arrived (returned with
  /// the newlines), EOF, or the socket timeout. Short result = failure
  /// the caller asserts on.
  std::string RecvLines(std::size_t count) {
    std::string got;
    std::size_t newlines = 0;
    char chunk[4096];
    while (newlines < count) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // EOF, timeout, or reset
      }
      for (ssize_t i = 0; i < n; ++i) newlines += chunk[i] == '\n' ? 1 : 0;
      got.append(chunk, static_cast<std::size_t>(n));
    }
    return got;
  }

  /// Reads exactly `count` complete binary frames (prelude + declared
  /// payload each), concatenated. Short result = EOF/timeout mid-frame;
  /// the caller asserts on the decode.
  std::string RecvFrames(std::size_t count) {
    std::string got;
    for (std::size_t f = 0; f < count; ++f) {
      std::string frame;
      if (!RecvExact(kWirePreludeBytes, &frame)) return got;
      std::string payload;
      if (!RecvExact(WirePayloadLength(frame.data()), &payload)) {
        return got + frame;
      }
      got += frame + payload;
    }
    return got;
  }

  /// Reads to EOF (or timeout), returning everything.
  std::string RecvAll() {
    std::string got;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      got.append(chunk, static_cast<std::size_t>(n));
    }
    return got;
  }

 private:
  bool RecvExact(std::size_t bytes, std::string* out) {
    const std::size_t start = out->size();
    out->resize(start + bytes);
    std::size_t off = start;
    while (off < out->size()) {
      const ssize_t n = ::read(fd_, &(*out)[off], out->size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        out->resize(off);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

LineHandler PongHandler() {
  return [](const std::string& line, std::string* reply) {
    if (line == "quit") {
      *reply = "BYE\n";
      return false;
    }
    *reply = "PONG " + line + "\n";
    return true;
  };
}

// ---------------------------------------------------------------------

TEST(NetServer, PipelinedRequestsAnswerInOrderThroughTheRealService) {
  // The TCP path runs the same ServiceSession dispatch as stdin mode, so
  // the wire replies must be byte-identical to calling HandleLine
  // directly on an identical service.
  ServiceOptions service_options;
  service_options.num_stripes = 2;
  auto served = HImpactService::Create(service_options);
  ASSERT_TRUE(served.ok());
  HImpactService tcp_service = std::move(served).value();
  ServiceSession tcp_session(&tcp_service, SessionOptions{});

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(),
                [&tcp_session](const std::string& line, std::string* reply) {
                  return tcp_session.HandleLine(line, reply);
                });

  const std::string script[] = {"add 1 5",  "add 1 9", "add 2 3", "get 1",
                                "top 2",    "zz junk", "stats",   "get 9",
                                "health",   "quit"};

  // Reference replies from a twin service driven directly.
  auto reference = HImpactService::Create(service_options);
  ASSERT_TRUE(reference.ok());
  HImpactService ref_service = std::move(reference).value();
  ServiceSession ref_session(&ref_service, SessionOptions{});
  std::string expected;
  for (const std::string& line : script) {
    std::string reply;
    ref_session.HandleLine(line, &reply);
    expected += reply;
  }

  // One pipelined burst: every request in a single write.
  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (const std::string& line : script) burst += line + "\n";
  ASSERT_TRUE(client.Send(burst));
  const std::string replies = client.RecvLines(std::size(script));
  EXPECT_EQ(replies, expected);
  // quit closes the connection once the reply flushed.
  EXPECT_EQ(client.RecvAll(), "");

  const NetServerCounters counters = harness.server->Counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.requests, std::size(script));
  EXPECT_EQ(counters.shed_at_accept, 0u);
}

TEST(NetServer, BinaryRepliesAreByteEquivalentToTextForEveryVerb) {
  // The parity property of docs/PROTOCOL.md: for any command, the
  // binary reply decodes (via FormatTextReply) to exactly the bytes the
  // text protocol would have sent. Every verb — including an unseen
  // `get` and a command-level error — is driven as binary frames over
  // the wire against one service, while a twin service answers the same
  // script through HandleLine directly.
  ServiceOptions service_options;
  service_options.num_stripes = 2;
  auto served = HImpactService::Create(service_options);
  ASSERT_TRUE(served.ok());
  HImpactService tcp_service = std::move(served).value();
  ServiceSession tcp_session(&tcp_service, SessionOptions{});

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(),
                [&tcp_session](const std::string& line, std::string* reply) {
                  return tcp_session.HandleLine(line, reply);
                },
                [&tcp_session](const std::string& frame, std::string* reply) {
                  return tcp_session.HandleFrame(frame, reply);
                });

  const std::string save_path =
      ::testing::TempDir() + "/net_parity_ckpt_" + std::to_string(::getpid());
  const std::string script[] = {
      "add 7 12", "add 7 9",           "add 8 3", "paper 42 6 7,8,9",
      "get 7",    "get 999",           "top 2",   "top 100000",
      "heavy",    "stats",             "health",  "save " + save_path,
      "quit"};

  // Reference replies from a twin service driven directly as text.
  auto reference = HImpactService::Create(service_options);
  ASSERT_TRUE(reference.ok());
  HImpactService ref_service = std::move(reference).value();
  ServiceSession ref_session(&ref_service, SessionOptions{});
  std::string expected;
  for (const std::string& line : script) {
    std::string reply;
    ref_session.HandleLine(line, &reply);
    expected += reply;
  }

  // Same script as one pipelined burst of binary request frames.
  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (const std::string& line : script) {
    StatusOr<Command> parsed = ParseCommandLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    burst += EncodeRequestFrame(parsed.value());
  }
  ASSERT_TRUE(client.Send(burst));
  const std::string frames = client.RecvFrames(std::size(script));

  // Decode each reply frame and re-render it as the text protocol.
  std::string rendered;
  std::size_t off = 0;
  std::size_t reply_count = 0;
  while (off + kWirePreludeBytes <= frames.size()) {
    const std::size_t frame_bytes =
        kWirePreludeBytes + WirePayloadLength(frames.data() + off);
    ASSERT_LE(off + frame_bytes, frames.size()) << "truncated reply stream";
    StatusOr<CommandResult> reply =
        DecodeReplyFrame(frames.substr(off, frame_bytes));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    rendered += FormatTextReply(reply.value());
    off += frame_bytes;
    ++reply_count;
  }
  EXPECT_EQ(reply_count, std::size(script));
  EXPECT_EQ(rendered, expected);
  // quit closes the connection once the reply flushed.
  EXPECT_EQ(client.RecvAll(), "");

  const NetServerCounters counters = harness.server->Counters();
  EXPECT_EQ(counters.binary_connections, 1u);
  EXPECT_EQ(counters.requests, std::size(script));

  std::remove(save_path.c_str());
  std::remove((save_path + ".stripe-0").c_str());
  std::remove((save_path + ".stripe-1").c_str());
}

TEST(NetServer, FirstByteSelectsTheProtocolPerConnection) {
  // One port, two protocols: a connection whose first byte is the
  // request magic latches binary; anything else stays text. Both run
  // against the same session back to back.
  ServiceOptions service_options;
  service_options.num_stripes = 2;
  auto served = HImpactService::Create(service_options);
  ASSERT_TRUE(served.ok());
  HImpactService service = std::move(served).value();
  ServiceSession session(&service, SessionOptions{});

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(),
                [&session](const std::string& line, std::string* reply) {
                  return session.HandleLine(line, reply);
                },
                [&session](const std::string& frame, std::string* reply) {
                  return session.HandleFrame(frame, reply);
                });

  // Text client first.
  Client text_client(harness.port());
  ASSERT_TRUE(text_client.connected());
  ASSERT_TRUE(text_client.Send("add 1 5\n"));
  EXPECT_EQ(text_client.RecvLines(1), "OK 1\n");

  // Binary client on the same port sees binary replies.
  Client binary_client(harness.port());
  ASSERT_TRUE(binary_client.connected());
  Command get;
  get.kind = CommandKind::kGet;
  get.user = 1;
  ASSERT_TRUE(binary_client.Send(EncodeRequestFrame(get)));
  const std::string frame = binary_client.RecvFrames(1);
  StatusOr<CommandResult> reply = DecodeReplyFrame(frame);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(FormatTextReply(reply.value()), "H 1 1 cold 1\n");

  const NetServerCounters counters = harness.server->Counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.binary_connections, 1u);
}

TEST(NetServer, BadMagicMidStreamGetsOneErrorFrameThenClose) {
  // After the connection latched binary, a byte that is not the request
  // magic means the stream is desynced — the server answers with exactly
  // one error frame and closes (docs/PROTOCOL.md "Errors").
  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(), PongHandler(),
                [](const std::string&, std::string* reply) {
                  *reply = EncodeErrorFrame("unused");
                  return true;
                });

  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  Command top;
  top.kind = CommandKind::kTop;
  top.value = 3;
  // A valid frame latches the protocol; the trailing junk desyncs it.
  ASSERT_TRUE(client.Send(EncodeRequestFrame(top) + "garbage"));
  const std::string bytes = client.RecvAll();  // replies, then EOF

  // Last reply on the stream is the structured desync error.
  std::size_t off = 0;
  StatusOr<CommandResult> last = Status::Internal("no frames");
  while (off + kWirePreludeBytes <= bytes.size()) {
    const std::size_t frame_bytes =
        kWirePreludeBytes + WirePayloadLength(bytes.data() + off);
    ASSERT_LE(off + frame_bytes, bytes.size());
    last = DecodeReplyFrame(bytes.substr(off, frame_bytes));
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    off += frame_bytes;
  }
  EXPECT_EQ(off, bytes.size()) << "non-frame bytes in the reply stream";
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(last.value().message, "bad frame magic: stream desynced");
  EXPECT_EQ(harness.server->Counters().killed_bad_magic, 1u);
}

TEST(NetServer, OversizeDeclaredFrameLengthGetsOneErrorFrameThenClose) {
  // The binary analogue of the oversize-line kill: the declared payload
  // length alone condemns the frame, before any payload bytes arrive.
  NetServerOptions options = ServerHarness::QuietOptions();
  options.limits.max_line_bytes = 64;
  ServerHarness harness;
  harness.Start(options, PongHandler(),
                [](const std::string&, std::string* reply) {
                  *reply = EncodeErrorFrame("unused");
                  return true;
                });

  Client attacker(harness.port());
  ASSERT_TRUE(attacker.connected());
  // A syntactically perfect prelude declaring a 1 MiB payload.
  std::string prelude;
  prelude.push_back(static_cast<char>(kWireRequestMagic));
  prelude.push_back(static_cast<char>(kWireVersion));
  const std::uint32_t declared = 1u << 20;
  for (int shift = 0; shift < 32; shift += 8) {
    prelude.push_back(static_cast<char>((declared >> shift) & 0xff));
  }
  ASSERT_TRUE(attacker.Send(prelude));

  const std::string bytes = attacker.RecvAll();
  StatusOr<CommandResult> reply = DecodeReplyFrame(bytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(reply.value().message, "frame exceeds max request size");
  EXPECT_EQ(harness.server->Counters().killed_oversize, 1u);
}

TEST(NetServer, BadVersionFrameGetsAPerFrameErrorAndTheConnectionSurvives) {
  // An unsupported version is a per-frame error, not a framing error:
  // the prelude is version-frozen, so the frame is still delimitable
  // and the connection keeps serving (docs/PROTOCOL.md "Versioning").
  ServiceOptions service_options;
  service_options.num_stripes = 2;
  auto served = HImpactService::Create(service_options);
  ASSERT_TRUE(served.ok());
  HImpactService service = std::move(served).value();
  ServiceSession session(&service, SessionOptions{});

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(),
                [&session](const std::string& line, std::string* reply) {
                  return session.HandleLine(line, reply);
                },
                [&session](const std::string& frame, std::string* reply) {
                  return session.HandleFrame(frame, reply);
                });

  Command add;
  add.kind = CommandKind::kAdd;
  add.user = 3;
  add.value = 4;
  std::string future = EncodeRequestFrame(add);
  future[1] = 0x02;  // a version this server does not speak

  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(future + EncodeRequestFrame(add)));
  const std::string frames = client.RecvFrames(2);

  const std::size_t first_bytes =
      kWirePreludeBytes + WirePayloadLength(frames.data());
  ASSERT_LE(first_bytes, frames.size());
  StatusOr<CommandResult> first = DecodeReplyFrame(frames.substr(0, first_bytes));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().code, StatusCode::kInvalidArgument);
  EXPECT_NE(first.value().message.find("unsupported protocol"),
            std::string::npos);

  StatusOr<CommandResult> second = DecodeReplyFrame(frames.substr(first_bytes));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().code, StatusCode::kOk);
  EXPECT_EQ(FormatTextReply(second.value()), "OK 1\n");

  // The session counted the rejected frame; the connection was not
  // killed for it.
  EXPECT_EQ(session.rejected_frames(), 1u);
  EXPECT_EQ(harness.server->Counters().killed_bad_magic, 0u);
}

TEST(NetServer, TenThousandClientHordeIsFullyAcceptedOrShed) {
  const std::uint64_t fd_limit = RaiseFdLimit(16384);
  // 10k clients + server-side fds + slack must fit the process limit;
  // scale down only if the environment is unusually tight.
  std::size_t horde = 10000;
  if (fd_limit < 12000) horde = static_cast<std::size_t>(fd_limit / 2);
  ASSERT_GE(horde, 1000u) << "fd limit too low to mean anything";

  NetServerOptions options = ServerHarness::QuietOptions();
  options.max_connections = 64;
  options.backlog = 4096;
  ServerHarness harness;
  harness.Start(options, PongHandler());

  enum class Phase { kConnecting, kSending, kReading, kDone };
  struct HordeClient {
    UniqueFd fd;
    Phase phase = Phase::kConnecting;
    std::string reply;
    bool served = false;
    bool shed = false;
    bool reset = false;
  };

  std::vector<HordeClient> clients(horde);
  std::size_t connect_failures = 0;
  for (HordeClient& client : clients) {
    auto connected = ConnectLoopback(harness.port());
    if (!connected.ok()) {
      client.phase = Phase::kDone;
      ++connect_failures;
      continue;
    }
    client.fd = std::move(connected).value();
  }

  // Drive every in-flight client from one poll loop until all are done.
  std::vector<pollfd> pollfds;
  std::vector<std::size_t> owners;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    pollfds.clear();
    owners.clear();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      HordeClient& client = clients[i];
      if (client.phase == Phase::kDone) continue;
      pollfd entry{};
      entry.fd = client.fd.get();
      entry.events = client.phase == Phase::kReading ? POLLIN : POLLOUT;
      pollfds.push_back(entry);
      owners.push_back(i);
    }
    if (pollfds.empty()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << pollfds.size() << " horde clients still unresolved";
    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), 1000);
    if (ready <= 0) continue;
    for (std::size_t p = 0; p < pollfds.size(); ++p) {
      if (pollfds[p].revents == 0) continue;
      HordeClient& client = clients[owners[p]];
      if (client.phase == Phase::kConnecting) {
        int error = 0;
        socklen_t len = sizeof(error);
        (void)::getsockopt(client.fd.get(), SOL_SOCKET, SO_ERROR, &error,
                           &len);
        if (error != 0) {
          client.phase = Phase::kDone;
          client.fd.Reset();
          ++connect_failures;
          continue;
        }
        client.phase = Phase::kSending;
      }
      if (client.phase == Phase::kSending) {
        const char ping[] = "ping\n";
        const ssize_t n = ::write(client.fd.get(), ping, sizeof(ping) - 1);
        if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
          // Shed-and-closed before our request landed.
          client.reset = true;
          client.phase = Phase::kDone;
          client.fd.Reset();
          continue;
        }
        if (n >= 0) client.phase = Phase::kReading;
        continue;
      }
      if (client.phase == Phase::kReading) {
        char chunk[256];
        const ssize_t n = ::read(client.fd.get(), chunk, sizeof(chunk));
        if (n > 0) {
          client.reply.append(chunk, static_cast<std::size_t>(n));
          if (client.reply.find('\n') == std::string::npos) continue;
          if (client.reply.rfind("PONG ", 0) == 0) {
            client.served = true;  // keep the fd open: it holds its slot
          } else {
            client.shed = true;
            client.fd.Reset();
          }
          client.phase = Phase::kDone;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        // EOF or reset without a full reply: the shed notice raced the
        // close. Still a decided outcome.
        client.reset = true;
        client.phase = Phase::kDone;
        client.fd.Reset();
      }
    }
  }

  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t reset = 0;
  for (const HordeClient& client : clients) {
    served += client.served ? 1 : 0;
    shed += client.shed ? 1 : 0;
    reset += client.reset ? 1 : 0;
  }
  // Every client got a decision; nobody hung.
  EXPECT_EQ(served + shed + reset + connect_failures, horde);
  EXPECT_LE(served, options.max_connections);
  EXPECT_GE(served, 1u);
  EXPECT_GE(shed, horde / 2) << "shedding should dominate at cap 64";

  // Server-side accounting matches: every connection that reached
  // accept() was either admitted or counted shed.
  const NetServerCounters counters = harness.server->Counters();
  EXPECT_EQ(counters.accepted + counters.shed_at_accept,
            horde - connect_failures);
  EXPECT_EQ(counters.accepted, served);
  EXPECT_EQ(counters.evicted_idle, 0u);  // eviction disabled in options

  // The loop survived the storm: free the held slots, then a fresh
  // client is admitted and served.
  for (HordeClient& client : clients) client.fd.Reset();
  for (int attempt = 0;; ++attempt) {
    Client probe(harness.port());
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(probe.Send("after\n"));
    const std::string reply = probe.RecvLines(1);
    if (reply == "PONG after\n") break;
    // The server may not have reaped the horde's closes yet.
    ASSERT_LT(attempt, 100) << "server never recovered capacity: " << reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(NetServer, SlowLorisIsEvictedAtCapWhileHealthyClientIsServed) {
  NetServerOptions options = ServerHarness::QuietOptions();
  options.max_connections = 3;
  options.evict_min_idle_nanos = 50 * kMillis;
  ServerHarness harness;
  harness.Start(options, PongHandler());

  // Three slow-loris connections fill the cap: each dribbles a partial
  // request and then stalls forever.
  std::vector<std::unique_ptr<Client>> loris;
  for (int i = 0; i < 3; ++i) {
    loris.push_back(std::make_unique<Client>(harness.port()));
    ASSERT_TRUE(loris.back()->connected());
    ASSERT_TRUE(loris.back()->Send("pi"));  // no newline, never finished
  }
  // Let the loris connections pass the eviction idle threshold.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // A healthy client arriving at the cap evicts the oldest idler and is
  // answered promptly.
  Client healthy(harness.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(healthy.Send("hello\n"));
  EXPECT_EQ(healthy.RecvLines(1), "PONG hello\n");

  const NetServerCounters counters = harness.server->Counters();
  EXPECT_GE(counters.evicted_idle, 1u);
  EXPECT_EQ(counters.shed_at_accept, 0u)
      << "healthy client must be served via eviction, not shed";

  // Exactly one slot was reclaimed: one loris observes EOF, the others
  // still hold theirs (poll reports no readable/closed event).
  std::size_t lost_slot = 0;
  for (auto& client : loris) {
    pollfd probe{};
    probe.fd = client->raw_fd();
    probe.events = POLLIN;
    const int ready = ::poll(&probe, 1, 100);
    if (ready > 0 && (probe.revents & (POLLIN | POLLHUP)) != 0) ++lost_slot;
  }
  EXPECT_EQ(lost_slot, 1u);
}

TEST(NetServer, StalledPartialRequestIsKilledByTheRequestDeadline) {
  NetServerOptions options = ServerHarness::QuietOptions();
  options.request_timeout_nanos = 100 * kMillis;
  ServerHarness harness;
  harness.Start(options, PongHandler());

  Client loris(harness.port());
  ASSERT_TRUE(loris.connected());
  ASSERT_TRUE(loris.Send("stuck-forev"));  // no newline

  // The sweep kills the stalled request with one explicit notice, then
  // closes; a complete read-to-EOF observes both.
  const std::string notice = loris.RecvAll();
  EXPECT_EQ(notice, "ERR request deadline exceeded\n");
  EXPECT_GE(harness.server->Counters().evicted_idle, 1u);

  // A fast client on the same server is untouched.
  Client healthy(harness.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(healthy.Send("ok\n"));
  EXPECT_EQ(healthy.RecvLines(1), "PONG ok\n");
}

TEST(NetServer, OversizeLineGetsExactlyOneErrThenClose) {
  NetServerOptions options = ServerHarness::QuietOptions();
  options.limits.max_line_bytes = 64;
  ServerHarness harness;
  harness.Start(options, PongHandler());

  Client attacker(harness.port());
  ASSERT_TRUE(attacker.connected());
  ASSERT_TRUE(attacker.Send(std::string(500, 'a')));  // no newline needed
  EXPECT_EQ(attacker.RecvAll(), "ERR line too long\n");
  EXPECT_EQ(harness.server->Counters().killed_oversize, 1u);

  // A line exactly at the limit still parses.
  Client polite(harness.port());
  ASSERT_TRUE(polite.connected());
  const std::string max_line(options.limits.max_line_bytes - 1, 'b');
  ASSERT_TRUE(polite.Send(max_line + "\n"));
  EXPECT_EQ(polite.RecvLines(1), "PONG " + max_line + "\n");
}

TEST(NetServer, PartialWriteInjectionPreservesReplyBytesExactly) {
  FaultRegistry::Global().Reset();
  FaultSpec spec;
  spec.skip = 0;
  spec.max_fires = ~0ull;
  FaultRegistry::Global().Arm(FaultPoint::kNetPartialWrite, spec);

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(), PongHandler());

  // Every server write is clamped to one byte, so each reply takes
  // dozens of EPOLLOUT continuations — the bytes must still arrive
  // complete and in order.
  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  std::string expected;
  std::string burst;
  for (int i = 0; i < 20; ++i) {
    burst += "msg" + std::to_string(i) + "\n";
    expected += "PONG msg" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(client.Send(burst));
  EXPECT_EQ(client.RecvLines(20), expected);
  EXPECT_GT(harness.server->Counters().partial_writes, 0u);

  FaultRegistry::Global().Reset();
}

TEST(NetServer, AcceptFailInjectionIsCountedAndTheListenerRecovers) {
  FaultRegistry::Global().Reset();
  FaultSpec spec;
  spec.skip = 0;
  spec.max_fires = 3;  // fail the first three accept attempts
  FaultRegistry::Global().Arm(FaultPoint::kNetAcceptFail, spec);

  ServerHarness harness;
  harness.Start(ServerHarness::QuietOptions(), PongHandler());

  // The listener stays level-triggered, so the pending connection keeps
  // waking the loop until the fault window passes; the client just sees
  // a slightly slower accept.
  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("still-here\n"));
  EXPECT_EQ(client.RecvLines(1), "PONG still-here\n");
  EXPECT_GE(harness.server->Counters().accept_failures, 1u);

  FaultRegistry::Global().Reset();
}

TEST(NetServer, DrainFlushesPendingRepliesAndRunsTheCallback) {
  ServerHarness harness;
  std::atomic<bool> callback_ran{false};
  NetServerOptions options = ServerHarness::QuietOptions();
  harness.Start(options, PongHandler());
  harness.server->set_drain_callback([&] { callback_ran.store(true); });

  Client client(harness.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("final\n"));
  EXPECT_EQ(client.RecvLines(1), "PONG final\n");

  harness.server->RequestDrain();
  // Drain closes the flushed connection (EOF) ...
  EXPECT_EQ(client.RecvAll(), "");
  // ... and the loop exits cleanly after the callback.
  harness.Join();
  EXPECT_TRUE(harness.run_status.ok()) << harness.run_status.ToString();
  EXPECT_TRUE(callback_ran.load());
  EXPECT_GE(harness.server->Counters().drained, 1u);

  // New connections are refused outright after the drain.
  Client late(harness.port());
  if (late.connected()) {
    ASSERT_TRUE(late.Send("late\n"));
    EXPECT_EQ(late.RecvAll(), "");
  }
}

}  // namespace
