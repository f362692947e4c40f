// Protocol fuzz / quarantine: hstream_serve must survive arbitrary junk
// on stdin — random bytes, truncated commands, oversized author lists,
// overflowing numbers — without aborting, corrupting state, or ever
// dropping a line silently. Every rejected line earns exactly one ERR
// reply and one tick of the `rejected_lines` counter reported by the
// `health` verb; valid lines interleaved with the junk must keep
// answering correctly.
//
// The binary wire protocol (net/wire.h, docs/PROTOCOL.md) gets the
// same treatment over a real in-process TCP server: per-frame hostiles
// (bad version, unknown opcode, short/trailing operands, semantic
// rejects) each earn exactly one structured error frame and one
// `rejected_frames` tick with the connection surviving, framing
// hostiles (bad magic, oversize declared length) kill only their own
// connection, and neither corrupts service state.
//
// The generator is seeded (random/rng.h), so a failure reproduces.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/server.h"
#include "net/wire.h"
#include "random/rng.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"

namespace {

using namespace himpact;

std::string TempPath(const char* name) {
  std::string path = "/tmp/himpact_fuzz_test_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(::getpid()));
  return path;
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
  ASSERT_EQ(std::fclose(file), 0);
}

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

RunResult RunServe(const std::string& args, const std::string& input_path) {
  const std::string command = std::string(HSTREAM_SERVE_PATH) + " " + args +
                              " < " + input_path + " 2>/dev/null";
  RunResult result;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    result.stdout_text.append(chunk, n);
  }
  const int raw = ::pclose(pipe);
  result.exit_code = raw >= 0 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// One junk line that is guaranteed malformed: a leading "zz" byte pair
// can never match a verb, so whatever follows, the parser rejects it
// with exactly one ERR. Payload bytes avoid '\n' (line framing) and
// '\0' (C-string plumbing in the test itself, not the server).
std::string JunkLine(Rng& rng) {
  std::string line = "zz";
  const std::size_t length = rng.UniformU64(60);
  for (std::size_t i = 0; i < length; ++i) {
    char byte = static_cast<char>(1 + rng.UniformU64(255));
    if (byte == '\n' || byte == '\0') byte = '?';
    line += byte;
  }
  return line;
}

// Structured-but-invalid lines: near-misses of every verb, the kind a
// broken load generator actually produces.
std::string NearMissLine(Rng& rng) {
  static const char* kNearMisses[] = {
      "add 5",                              // missing value
      "add 5 6 7",                          // trailing token
      "add 18446744073709551616 1",         // u64 overflow
      "add -3 4",                           // signed id
      "paper 1 2",                          // no author list
      "paper 1 2 1,2,3,4,5,6,7,8,9,10,11",  // oversized author list
      "paper 1 2 7,7",                      // duplicate author
      "paper 1 2 ,,,",                      // empty author ids
      "get",                                // missing user
      "top 0",                              // k < 1
      "top banana",                         // non-numeric k
      "heavy metal",                        // trailing token
      "stats  ",                            // trailing spaces
      "health check",                       // trailing token
      "save",                               // missing path
      "quit now",                           // trailing token
      "",                                   // blank line
      " add 5 6",                           // leading space
      "ADD 5 6",                            // wrong case
  };
  constexpr std::size_t kCount = sizeof(kNearMisses) / sizeof(kNearMisses[0]);
  return kNearMisses[rng.UniformU64(kCount)];
}

TEST(ProtocolFuzz, JunkIsQuarantinedCountedAndNeverWedgesTheServer) {
  Rng rng(20260805);
  std::string input;
  std::uint64_t bad_lines = 0;
  std::uint64_t good_adds = 0;

  // Interleave valid traffic with junk so quarantine and real work are
  // exercised against each other, not in separate phases.
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t roll = rng.UniformU64(4);
    if (roll == 0) {
      input += "add " + std::to_string(1 + rng.UniformU64(20)) + " " +
               std::to_string(1 + rng.UniformU64(100)) + "\n";
      ++good_adds;
    } else if (roll == 1) {
      input += JunkLine(rng) + "\n";
      ++bad_lines;
    } else if (roll == 2) {
      input += NearMissLine(rng) + "\n";
      ++bad_lines;
    } else {
      input += "get " + std::to_string(1 + rng.UniformU64(20)) + "\n";
    }
  }
  input += "health\nstats\nquit\n";

  const std::string path = TempPath("junk_in");
  WriteTextFile(path, input);
  const RunResult result = RunServe("--stripes 2 --no-heavy", path);

  // Survival: clean exit through `quit`, never a crash or a wedge.
  ASSERT_EQ(result.exit_code, 0);
  const std::vector<std::string> replies = SplitLines(result.stdout_text);
  ASSERT_GE(replies.size(), 3u);
  EXPECT_EQ(replies.back(), "BYE");

  // One reply per input line: nothing was silently swallowed. The input
  // line count equals the newline count since every line is terminated.
  std::size_t input_lines = 0;
  for (const char byte : input) input_lines += byte == '\n' ? 1 : 0;
  EXPECT_EQ(replies.size(), input_lines);

  // Every bad line produced exactly one ERR...
  std::size_t err_replies = 0;
  for (const std::string& reply : replies) {
    if (reply.rfind("ERR ", 0) == 0 || reply == "ERR") ++err_replies;
  }
  EXPECT_EQ(err_replies, bad_lines);

  // ...and exactly one rejected_lines tick, reported by `health`.
  const std::string& health = replies[replies.size() - 3];
  ASSERT_EQ(health.rfind("HEALTH ", 0), 0u) << health;
  const std::string needle = "\"rejected_lines\":" + std::to_string(bad_lines);
  EXPECT_NE(health.find(needle), std::string::npos)
      << "health line " << health << " lacks " << needle;

  // State was not corrupted by the junk: stats still counts exactly the
  // valid adds.
  const std::string& stats = replies[replies.size() - 2];
  ASSERT_EQ(stats.rfind("STATS ", 0), 0u) << stats;
  const std::string events = "\"events\":" + std::to_string(good_adds);
  EXPECT_NE(stats.find(events), std::string::npos)
      << "stats line " << stats << " lacks " << events;

  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(file);
  return bytes;
}

TEST(ProtocolFuzz, CrlfNulAndMegalineEachEarnOneErrAndLeaveStateUntouched) {
  // Three framing-level hostiles, each worth exactly one ERR and one
  // rejected_lines tick:
  //  - CRLF line endings: the strict parser keeps the '\r' in the last
  //    token and rejects it — no silent tolerance of Windows framing.
  //  - An embedded NUL: the C-string token parsers would truncate at the
  //    NUL and mis-parse "add 5 6\0junk" as a valid add, so the parser
  //    rejects NUL-bearing lines up front.
  //  - A single 1MB line: stdin framing has no line cap (that is the TCP
  //    front end's job), so it must flow through quarantine like any
  //    other junk, without wedging or blowing up.
  // State proof: a run with the hostiles interleaved checkpoints
  // byte-identically to a run of the valid commands alone.
  const std::string kValid[] = {"add 11 5", "add 12 9", "paper 4 70 11,12",
                                "add 11 2"};
  std::string hostile;
  std::string clean;
  std::uint64_t bad_lines = 0;

  hostile += "add 5 6\r\n";  // CRLF framing
  ++bad_lines;
  hostile += kValid[0] + "\n";
  clean += kValid[0] + "\n";
  hostile += std::string("add 5 6") + '\0' + "junk\n";  // embedded NUL
  ++bad_lines;
  hostile += kValid[1] + "\n";
  clean += kValid[1] + "\n";
  hostile += "zz" + std::string(1 << 20, 'a') + "\n";  // 1MB single line
  ++bad_lines;
  hostile += kValid[2] + "\n";
  clean += kValid[2] + "\n";
  hostile += std::string(1, '\0') + "\n";  // NUL-only line
  ++bad_lines;
  hostile += kValid[3] + "\n";
  clean += kValid[3] + "\n";

  const std::string hostile_ckpt = TempPath("hostile_ckpt");
  const std::string clean_ckpt = TempPath("clean_ckpt");
  hostile += "health\nsave " + hostile_ckpt + "\nquit\n";
  clean += "save " + clean_ckpt + "\nquit\n";

  const std::string hostile_in = TempPath("hostile_in");
  const std::string clean_in = TempPath("clean_in");
  WriteTextFile(hostile_in, hostile);
  WriteTextFile(clean_in, clean);

  const std::string args = "--stripes 2 --seed 7";
  const RunResult hostile_run = RunServe(args, hostile_in);
  const RunResult clean_run = RunServe(args, clean_in);
  ASSERT_EQ(hostile_run.exit_code, 0);
  ASSERT_EQ(clean_run.exit_code, 0);

  // Exactly one ERR per hostile line, one reply per input line. Input
  // lines are counted by newline; the NUL-bearing lines still frame on
  // their '\n'.
  const std::vector<std::string> replies = SplitLines(hostile_run.stdout_text);
  std::size_t input_lines = 0;
  for (const char byte : hostile) input_lines += byte == '\n' ? 1 : 0;
  EXPECT_EQ(replies.size(), input_lines);
  std::size_t err_replies = 0;
  for (const std::string& reply : replies) {
    if (reply.rfind("ERR ", 0) == 0 || reply == "ERR") ++err_replies;
  }
  EXPECT_EQ(err_replies, bad_lines);

  // ...and the quarantine counter agrees.
  ASSERT_GE(replies.size(), 3u);
  const std::string& health = replies[replies.size() - 3];
  ASSERT_EQ(health.rfind("HEALTH ", 0), 0u) << health;
  const std::string needle = "\"rejected_lines\":" + std::to_string(bad_lines);
  EXPECT_NE(health.find(needle), std::string::npos)
      << "health line " << health << " lacks " << needle;

  // Byte-identical state: the hostiles contributed nothing.
  const std::string hostile_bytes = ReadFileBytes(hostile_ckpt);
  const std::string clean_bytes = ReadFileBytes(clean_ckpt);
  ASSERT_FALSE(hostile_bytes.empty());
  EXPECT_EQ(hostile_bytes, clean_bytes);

  std::remove(hostile_in.c_str());
  std::remove(clean_in.c_str());
  std::remove(hostile_ckpt.c_str());
  std::remove(clean_ckpt.c_str());
}

TEST(ProtocolFuzz, TruncatedFinalLineWithoutNewlineStillAnswers) {
  // A generator dying mid-line must not wedge the reply loop: getline
  // yields the unterminated fragment, which parses (or ERRs) as usual,
  // and EOF ends the session without `quit` (exit 0, no BYE).
  const std::string path = TempPath("trunc_in");
  WriteTextFile(path, "add 3 9\nget 3\nadd 3 ");
  const RunResult result = RunServe("--stripes 1 --no-heavy", path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text,
            "OK 1\nH 3 1 cold 1\nERR bad value ''\n");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Binary-frame corpus (docs/PROTOCOL.md): an in-process NetServer
// backed by a real session, driven by a blocking socket client. The
// stdin plumbing above cannot carry frames — stdin mode is text-only —
// so the binary rounds go over the real TCP path.

struct BinaryServeFixture {
  HImpactService service;
  ServiceSession session;
  std::unique_ptr<NetServer> server;
  std::thread loop;

  static HImpactService MakeService() {
    ServiceOptions options;
    options.num_stripes = 2;
    auto created = HImpactService::Create(options);
    EXPECT_TRUE(created.ok());
    return std::move(created).value();
  }

  BinaryServeFixture()
      : service(MakeService()), session(&service, SessionOptions{}) {
    NetServerOptions options;
    options.port = 0;
    options.max_connections = 8;
    options.idle_timeout_nanos = 0;
    options.request_timeout_nanos = 0;
    options.limits.max_line_bytes = 4096;
    auto created = NetServer::Create(
        options,
        [this](const std::string& line, std::string* reply) {
          return session.HandleLine(line, reply);
        },
        [this](const std::string& frame, std::string* reply) {
          return session.HandleFrame(frame, reply);
        });
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    server = std::move(created).value();
    loop = std::thread([this] { (void)server->Run(); });
  }

  ~BinaryServeFixture() {
    server->Stop();
    loop.join();
  }
};

int ConnectLoopbackBlocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 5;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads to EOF or the socket timeout.
std::string RecvToEof(int fd) {
  std::string got;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    got.append(chunk, static_cast<std::size_t>(n));
  }
  return got;
}

/// Splits a byte stream into complete reply frames and decodes each;
/// asserts the stream is nothing but frames.
std::vector<CommandResult> DecodeReplyStream(const std::string& bytes) {
  std::vector<CommandResult> replies;
  std::size_t off = 0;
  while (off + kWirePreludeBytes <= bytes.size()) {
    const std::size_t frame_bytes =
        kWirePreludeBytes + WirePayloadLength(bytes.data() + off);
    EXPECT_LE(off + frame_bytes, bytes.size()) << "truncated reply frame";
    if (off + frame_bytes > bytes.size()) break;
    StatusOr<CommandResult> reply =
        DecodeReplyFrame(bytes.substr(off, frame_bytes));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (!reply.ok()) break;
    replies.push_back(std::move(reply).value());
    off += frame_bytes;
  }
  EXPECT_EQ(off, bytes.size()) << "non-frame bytes in the reply stream";
  return replies;
}

/// A well-framed request whose payload the decoder must reject: valid
/// prelude, declared length matching, garbage inside.
std::string HostilePayloadFrame(const std::string& payload) {
  std::string frame;
  frame.push_back(static_cast<char>(kWireRequestMagic));
  frame.push_back(static_cast<char>(kWireVersion));
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  frame += payload;
  return frame;
}

std::string AddFrame(std::uint64_t user, std::uint64_t value) {
  Command command;
  command.kind = CommandKind::kAdd;
  command.user = user;
  command.value = value;
  return EncodeRequestFrame(command);
}

std::string VerbFrame(CommandKind kind) {
  Command command;
  command.kind = kind;
  return EncodeRequestFrame(command);
}

TEST(ProtocolFuzz, HostileBinaryPayloadsEachEarnOneErrorFrameAndStateHolds) {
  // Per-frame hostiles: every one is perfectly framed (the prelude and
  // declared length are valid) but the payload must be rejected — by
  // the version gate, the opcode table, or operand validation. Each
  // earns exactly one kErr reply frame, one rejected_frames tick, and
  // the connection keeps serving the valid adds interleaved with them.
  BinaryServeFixture fixture;
  const int fd = ConnectLoopbackBlocking(fixture.server->port());
  ASSERT_GE(fd, 0);

  std::string bad_version = AddFrame(3, 4);
  bad_version[1] = 0x02;  // future protocol version

  const std::string hostiles[] = {
      bad_version,
      HostilePayloadFrame(""),              // empty payload, no opcode
      HostilePayloadFrame("\x7f"),          // unknown opcode
      HostilePayloadFrame("\x01\x05"),      // add with short operands
      AddFrame(5, 6) + "",                  // placeholder replaced below
      HostilePayloadFrame(                  // top with k = 0
          std::string("\x04", 1) + std::string(8, '\0')),
      HostilePayloadFrame(                  // paper with duplicate author
          std::string("\x02", 1) + std::string(8, '\0') +
          std::string(8, '\0') + std::string("\x02", 1) +
          std::string("\x07", 1) + std::string(7, '\0') +
          std::string("\x07", 1) + std::string(7, '\0')),
      HostilePayloadFrame(std::string("\x08", 1)),  // save with empty path
  };
  // Trailing-bytes hostile: a valid add frame with one extra payload
  // byte, declared length included (framing fine, decode must reject).
  std::string trailing = AddFrame(5, 6);
  trailing += '\x00';
  trailing[2] = static_cast<char>(trailing.size() - kWirePreludeBytes);

  std::string burst;
  std::uint64_t bad_frames = 0;
  std::uint64_t good_adds = 0;
  Rng rng(20260809);
  std::vector<std::string> corpus(std::begin(hostiles), std::end(hostiles));
  corpus[4] = trailing;
  for (int round = 0; round < 6; ++round) {
    for (const std::string& hostile : corpus) {
      burst += AddFrame(1 + rng.UniformU64(16), 1 + rng.UniformU64(9));
      ++good_adds;
      burst += hostile;
      ++bad_frames;
    }
  }
  burst += VerbFrame(CommandKind::kStats);
  burst += VerbFrame(CommandKind::kHealth);
  burst += VerbFrame(CommandKind::kQuit);

  ASSERT_TRUE(SendAll(fd, burst));
  const std::vector<CommandResult> replies = DecodeReplyStream(RecvToEof(fd));
  ::close(fd);

  // One reply per frame — hostiles included, nothing swallowed, and the
  // connection survived to the quit.
  ASSERT_EQ(replies.size(), good_adds + bad_frames + 3);
  std::uint64_t err_replies = 0;
  for (const CommandResult& reply : replies) {
    if (reply.code != StatusCode::kOk) {
      ++err_replies;
      EXPECT_EQ(reply.code, StatusCode::kInvalidArgument) << reply.message;
    }
  }
  EXPECT_EQ(err_replies, bad_frames);

  // The quarantine counter and the service state both held: exactly
  // bad_frames rejects, exactly good_adds events.
  const CommandResult& health = replies[replies.size() - 2];
  EXPECT_EQ(health.kind, CommandKind::kHealth);
  EXPECT_NE(health.text.find("\"rejected_frames\":" +
                             std::to_string(bad_frames)),
            std::string::npos)
      << health.text;
  const CommandResult& stats = replies[replies.size() - 3];
  EXPECT_EQ(stats.kind, CommandKind::kStats);
  EXPECT_NE(stats.text.find("\"events\":" + std::to_string(good_adds)),
            std::string::npos)
      << stats.text;
  EXPECT_EQ(replies.back().kind, CommandKind::kQuit);
}

TEST(ProtocolFuzz, BinaryFramingHostilesKillOnlyTheirOwnConnection) {
  // Framing hostiles — the stream itself is unusable, so the server
  // answers one structured error frame and closes that connection:
  //  - a declared length past max-line-bytes (oversize by declaration);
  //  - desync: a latched-binary stream whose next byte is not the
  //    request magic (here: text interleaved after a binary frame).
  // A truncated prelude at EOF is dropped silently (no reply for a
  // request that never finished). None of it corrupts service state.
  BinaryServeFixture fixture;

  // Round 1: oversize declared length, no payload bytes at all.
  {
    const int fd = ConnectLoopbackBlocking(fixture.server->port());
    ASSERT_GE(fd, 0);
    std::string prelude;
    prelude.push_back(static_cast<char>(kWireRequestMagic));
    prelude.push_back(static_cast<char>(kWireVersion));
    const std::uint32_t declared = 1u << 24;
    for (int shift = 0; shift < 32; shift += 8) {
      prelude.push_back(static_cast<char>((declared >> shift) & 0xff));
    }
    ASSERT_TRUE(SendAll(fd, AddFrame(21, 4) + prelude));
    const std::vector<CommandResult> replies =
        DecodeReplyStream(RecvToEof(fd));
    ::close(fd);
    ASSERT_EQ(replies.size(), 2u);  // the add, then the kill notice
    EXPECT_EQ(replies[0].code, StatusCode::kOk);
    EXPECT_EQ(replies[1].code, StatusCode::kInvalidArgument);
    EXPECT_EQ(replies[1].message, "frame exceeds max request size");
  }

  // Round 2: text interleaved on a latched-binary connection desyncs it.
  {
    const int fd = ConnectLoopbackBlocking(fixture.server->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, AddFrame(22, 5) + "get 22\n"));
    const std::vector<CommandResult> replies =
        DecodeReplyStream(RecvToEof(fd));
    ::close(fd);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].code, StatusCode::kOk);
    EXPECT_EQ(replies[1].code, StatusCode::kInvalidArgument);
    EXPECT_EQ(replies[1].message, "bad frame magic: stream desynced");
  }

  // Round 3: binary frame interleaved on a latched-text connection is
  // junk text — one ERR line, connection survives (the frame bytes
  // carry NULs, which the text parser quarantines).
  {
    const int fd = ConnectLoopbackBlocking(fixture.server->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        SendAll(fd, "add 23 6\n" + AddFrame(23, 7) + "\nget 23\nquit\n"));
    const std::string text = RecvToEof(fd);
    ::close(fd);
    const std::vector<std::string> lines = SplitLines(text);
    ASSERT_EQ(lines.size(), 4u) << text;
    EXPECT_EQ(lines[0], "OK 1");
    EXPECT_EQ(lines[1].rfind("ERR ", 0), 0u) << lines[1];
    EXPECT_EQ(lines[2].rfind("H 23 1 ", 0), 0u) << lines[2];
    EXPECT_EQ(lines[3], "BYE");
  }

  // Round 4: truncated prelude at EOF — answered frames flush, the
  // fragment is dropped without a reply.
  {
    const int fd = ConnectLoopbackBlocking(fixture.server->port());
    ASSERT_GE(fd, 0);
    const std::string fragment(
        std::string(1, static_cast<char>(kWireRequestMagic)) +
        std::string(1, static_cast<char>(kWireVersion)) + "\x09");
    ASSERT_TRUE(SendAll(fd, AddFrame(24, 8) + fragment));
    ::shutdown(fd, SHUT_WR);  // client is done writing: fragment is final
    const std::vector<CommandResult> replies =
        DecodeReplyStream(RecvToEof(fd));
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].code, StatusCode::kOk);
  }

  // State proof: a fresh connection sees exactly the four successful
  // adds from the rounds (21, 22, 23 as text, 24) and zero rejected
  // frames — the framing kills never reached the session, and the
  // binary frame swallowed as text junk never became an add.
  const int fd = ConnectLoopbackBlocking(fixture.server->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, VerbFrame(CommandKind::kStats) +
                              VerbFrame(CommandKind::kHealth) +
                              VerbFrame(CommandKind::kQuit)));
  const std::vector<CommandResult> replies = DecodeReplyStream(RecvToEof(fd));
  ::close(fd);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_NE(replies[0].text.find("\"events\":4"), std::string::npos)
      << replies[0].text;
  EXPECT_NE(replies[1].text.find("\"rejected_frames\":0"), std::string::npos)
      << replies[1].text;
  const NetServerCounters counters = fixture.server->Counters();
  EXPECT_EQ(counters.killed_oversize, 1u);
  EXPECT_EQ(counters.killed_bad_magic, 1u);
}

TEST(ProtocolFuzz, OversizedAuthorListsNeverReachTheAuthorCapacityCheck) {
  // AuthorList's PushBack CHECK-aborts past kMaxAuthorsPerPaper; the
  // parser must reject long lists before ever constructing one. 300
  // authors would abort the process if the guard slipped.
  std::string line = "paper 1 2 ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) line += ",";
    line += std::to_string(i + 1);
  }
  const std::string path = TempPath("authors_in");
  WriteTextFile(path, line + "\nget 1\nquit\n");
  const RunResult result = RunServe("--stripes 1 --no-heavy", path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text,
            "ERR too many authors (max 8)\nH 1 0 none 0\nBYE\n");
  std::remove(path.c_str());
}

}  // namespace
