// Kill-and-resume drill: SIGKILL a live hstream_serve that is
// auto-checkpointing under load (--checkpoint --checkpoint-every), then
// restart from the checkpoint and verify the surviving state — in a
// loop. The properties under drill:
//
//  * the restart never fails: SIGKILL may land mid-checkpoint-write,
//    and the atomic tmp+fsync+rename discipline (src/io/checkpoint.cc)
//    must leave either the old or the new checkpoint complete under the
//    real name, never a torn hybrid;
//  * state is monotone across restarts: every auto-checkpoint extends
//    the state restored at the round's start, so each round's verified
//    estimates must be >= the previous round's for every battery user
//    (H-indexes only grow). A failed restore silently falling back to a
//    fresh service would crater the estimates and trip this check.
//
// The child's death is asserted to be exactly our SIGKILL — a crash or
// CHECK-abort under load would surface as a different termination.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "service/protocol.h"

namespace {

constexpr int kRounds = 4;
constexpr int kBatteryUsers = 20;
constexpr int kAddsPerRound = 120;
constexpr const char* kCheckpointEvery = "7";

std::string TempPath(const char* name) {
  std::string path = "/tmp/himpact_drill_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(::getpid()));
  return path;
}

// Spawns hstream_serve auto-checkpointing to `checkpoint`, with both
// stdin and stdout piped so a drill can feed it load and read its
// replies; stderr is discarded. `extra` appends flags (e.g.
// --segment-dir DIR) to the base argv.
pid_t SpawnServe(const std::string& checkpoint, int* stdin_fd, int* stdout_fd,
                 const std::vector<std::string>& extra = {}) {
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (::pipe(in) != 0) return -1;
  if (::pipe(out) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return -1;
  }
  std::vector<const char*> argv = {HSTREAM_SERVE_PATH,
                                   "--stripes",
                                   "2",
                                   "--no-heavy",
                                   "--restore",
                                   checkpoint.c_str(),
                                   "--checkpoint",
                                   checkpoint.c_str(),
                                   "--checkpoint-every",
                                   kCheckpointEvery};
  for (const std::string& arg : extra) argv.push_back(arg.c_str());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in[0]);
    ::close(in[1]);
    ::close(out[0]);
    ::close(out[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(in[0]);
    ::close(in[1]);
    ::close(out[0]);
    ::close(out[1]);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    ::execv(HSTREAM_SERVE_PATH, const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  *stdin_fd = in[1];
  *stdout_fd = out[0];
  return pid;
}

// Reads replies off `fd` (a socket, or a child's stdout pipe) until at
// least `count` have arrived (text lines, or binary reply frames when
// `binary`). The server writes the reply to the `--checkpoint-every`-th
// mutation only after that mutation's inline checkpoint returned, so
// once this succeeds a kill leaves a checkpoint of this very round
// behind. A 30 s wait per read bounds it: false means the server
// stalled, closed, or died. `*seen_out` (when given) receives how many
// complete replies were read, which may exceed `count`.
bool AwaitReplies(int fd, int count, bool binary, int* seen_out = nullptr) {
  std::string pending;
  int seen = 0;
  char chunk[4096];
  while (seen < count) {
    pollfd ready{fd, POLLIN, 0};
    const int polled = ::poll(&ready, 1, 30000);
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) return false;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (!binary) {
      seen += static_cast<int>(std::count(chunk, chunk + n, '\n'));
      continue;
    }
    pending.append(chunk, static_cast<std::size_t>(n));
    while (pending.size() >= himpact::kWirePreludeBytes) {
      const std::size_t frame = himpact::kWirePreludeBytes +
                                himpact::WirePayloadLength(pending.data());
      if (pending.size() < frame) break;
      pending.erase(0, frame);
      ++seen;
    }
  }
  if (seen_out != nullptr) *seen_out = seen;
  return true;
}

// Writes one full line to the child, tolerating nothing: a short write
// or EPIPE means the child died, which the caller treats as failure.
bool WriteLine(int fd, const std::string& line) {
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd, line.data() + written,
                              line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

// Queries the battery through a fresh (checkpoint-restored, read-only)
// server session and returns the per-user estimates; nullopt-style
// failure is reported through the bool.
bool QueryBattery(const std::string& checkpoint,
                  std::vector<double>* estimates,
                  const std::string& extra_flags = "") {
  const std::string input_path = TempPath("query_in");
  std::string script;
  for (int user = 1; user <= kBatteryUsers; ++user) {
    script += "get " + std::to_string(user) + "\n";
  }
  script += "quit\n";
  std::FILE* file = std::fopen(input_path.c_str(), "w");
  if (file == nullptr) return false;
  std::fwrite(script.data(), 1, script.size(), file);
  std::fclose(file);

  const std::string command = std::string(HSTREAM_SERVE_PATH) +
                              " --stripes 2 --no-heavy --restore " +
                              checkpoint + extra_flags + " < " + input_path +
                              " 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string output;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    output.append(chunk, n);
  }
  const int raw = ::pclose(pipe);
  std::remove(input_path.c_str());
  if (!(raw >= 0 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)) return false;

  estimates->clear();
  std::size_t start = 0;
  for (int user = 1; user <= kBatteryUsers; ++user) {
    const std::size_t end = output.find('\n', start);
    if (end == std::string::npos) return false;
    const std::string line = output.substr(start, end - start);
    start = end + 1;
    // "H <user> <estimate> <tier> <events>"
    const std::string prefix = "H " + std::to_string(user) + " ";
    if (line.rfind(prefix, 0) != 0) return false;
    estimates->push_back(std::strtod(line.c_str() + prefix.size(), nullptr));
  }
  return true;
}

TEST(KillResumeDrill, StateSurvivesRepeatedSigkillMonotonically) {
  // The child dying between our writes raises SIGPIPE in the parent;
  // turn it into a visible write error instead of a test-killer.
  ::signal(SIGPIPE, SIG_IGN);

  const std::string checkpoint = TempPath("ckpt");
  std::vector<double> previous(kBatteryUsers, 0.0);

  for (int round = 0; round < kRounds; ++round) {
    int stdin_fd = -1;
    int stdout_fd = -1;
    const pid_t pid = SpawnServe(checkpoint, &stdin_fd, &stdout_fd);
    ASSERT_GT(pid, 0) << "spawn failed in round " << round;

    // Live load: battery users accumulate response counts, with the
    // values keyed off the round so estimates keep growing. Writes are
    // paced lightly so several auto-checkpoints land before the kill.
    bool wrote_all = true;
    for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
      const int user = 1 + i % kBatteryUsers;
      const int value = 1 + (round * kAddsPerRound + i) % 40;
      wrote_all = WriteLine(stdin_fd, "add " + std::to_string(user) + " " +
                                          std::to_string(value) + "\n");
      if (i % 16 == 0) ::usleep(2000);
    }
    EXPECT_TRUE(wrote_all) << "child died before the kill in round "
                           << round;
    // Kill only once this round has a landed checkpoint: the file of an
    // earlier round exists already, so only the replies can tell.
    ASSERT_TRUE(AwaitReplies(stdout_fd, std::atoi(kCheckpointEvery), false))
        << "no auto-checkpoint completed in round " << round;

    // SIGKILL mid-load: no shutdown path, no final save. Whatever the
    // last completed auto-checkpoint was is what must survive.
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(stdin_fd);
    ::close(stdout_fd);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited on its own with status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL)
        << "child died of an unexpected signal (a crash under load?)";

    // Restart and verify: the checkpoint must restore (atomic writes
    // guarantee a complete file) and every battery estimate must be at
    // least what the previous round verified.
    std::vector<double> current;
    ASSERT_TRUE(QueryBattery(checkpoint, &current))
        << "post-kill restore/query session failed in round " << round;
    ASSERT_EQ(current.size(), previous.size());
    for (int user = 0; user < kBatteryUsers; ++user) {
      EXPECT_GE(current[user], previous[user])
          << "round " << round << " regressed user " << (user + 1)
          << " — restored from a stale or fresh state";
    }
    previous = std::move(current);
  }

  // After several rounds of checkpointed load, state must be visibly
  // non-trivial (a silently-fresh service every round would stay at 0).
  double total = 0.0;
  for (const double estimate : previous) total += estimate;
  EXPECT_GT(total, 0.0);

  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".stripe-0").c_str());
  std::remove((checkpoint + ".stripe-1").c_str());
  std::remove((checkpoint + ".grid").c_str());
}

TEST(KillResumeDrill, PagedFullSavesSurviveRepeatedSigkillMonotonically) {
  // The stdin drill with the production cold-tier config: an attached
  // segment store (--segment-dir), so every auto-save also seals the
  // stripes' pending cold-tier records. The SIGKILL can land mid-save,
  // between stripe files or before the manifest; restore with the
  // segment store attached must never fall back past verified state,
  // and a restored server's saves must keep restoring in later rounds.
  ::signal(SIGPIPE, SIG_IGN);

  const std::string root = TempPath("paged");
  const std::string segment_dir = root + "/segments";
  const std::string checkpoint = root + "/ckpt";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(segment_dir);
  const std::vector<std::string> paged_flags = {"--segment-dir",
                                                segment_dir};
  const std::string query_flags = " --segment-dir " + segment_dir;
  std::vector<double> previous(kBatteryUsers, 0.0);

  for (int round = 0; round < kRounds; ++round) {
    int stdin_fd = -1;
    int stdout_fd = -1;
    const pid_t pid =
        SpawnServe(checkpoint, &stdin_fd, &stdout_fd, paged_flags);
    ASSERT_GT(pid, 0) << "spawn failed in round " << round;

    bool wrote_all = true;
    for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
      const int user = 1 + i % kBatteryUsers;
      const int value = 1 + (round * kAddsPerRound + i) % 40;
      wrote_all = WriteLine(stdin_fd, "add " + std::to_string(user) + " " +
                                          std::to_string(value) + "\n");
      if (i % 16 == 0) ::usleep(2000);
    }
    EXPECT_TRUE(wrote_all) << "child died before the kill in round "
                           << round;
    // Waiting for two saves' replies guarantees that every round saved
    // over the checkpoint the previous round left before the kill.
    ASSERT_TRUE(
        AwaitReplies(stdout_fd, 2 * std::atoi(kCheckpointEvery), false))
        << "no second auto-save completed in round " << round;

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(stdin_fd);
    ::close(stdout_fd);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited on its own with status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL)
        << "child died of an unexpected signal (a crash under load?)";

    // The verification session restores with the segment store
    // attached, exactly as a production replacement would.
    std::vector<double> current;
    ASSERT_TRUE(QueryBattery(checkpoint, &current, query_flags))
        << "post-kill restore/query failed in round " << round;
    ASSERT_EQ(current.size(), previous.size());
    for (int user = 0; user < kBatteryUsers; ++user) {
      EXPECT_GE(current[user], previous[user])
          << "round " << round << " regressed user " << (user + 1)
          << " — restore fell back past verified state";
    }
    previous = std::move(current);
  }

  double total = 0.0;
  for (const double estimate : previous) total += estimate;
  EXPECT_GT(total, 0.0);

  // Every save is a full save: no delta chain is ever written.
  EXPECT_TRUE(std::filesystem::exists(checkpoint + ".stripe-0"));
  EXPECT_FALSE(std::filesystem::exists(checkpoint + ".head"));
  EXPECT_FALSE(std::filesystem::exists(checkpoint + ".delta-1"));

  std::filesystem::remove_all(root);
}

// Spawns hstream_serve in TCP mode (--listen 0) and parses the bound
// port from its first stdout line ("LISTENING <port>").
pid_t SpawnServeTcp(const std::string& checkpoint, std::uint16_t* port) {
  int out[2] = {-1, -1};
  if (::pipe(out) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    const char* argv[] = {HSTREAM_SERVE_PATH,
                          "--stripes",
                          "2",
                          "--no-heavy",
                          "--listen",
                          "0",
                          "--restore",
                          checkpoint.c_str(),
                          "--checkpoint",
                          checkpoint.c_str(),
                          "--checkpoint-every",
                          kCheckpointEvery,
                          nullptr};
    ::execv(HSTREAM_SERVE_PATH, const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out[1]);
  // Read the announcement line byte-wise (it is short and arrives as
  // one flush).
  std::string line;
  char byte = 0;
  while (line.size() < 64) {
    const ssize_t n = ::read(out[0], &byte, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    if (byte == '\n') break;
    line += byte;
  }
  ::close(out[0]);
  if (line.rfind("LISTENING ", 0) != 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return -1;
  }
  *port = static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + sizeof("LISTENING ") - 1, nullptr, 10));
  return pid;
}

int ConnectBlocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
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

TEST(KillResumeDrill, TcpServerSurvivesSigkillMidLoadMonotonically) {
  // The stdin drill, over real sockets: SIGKILL a --listen server while
  // a TCP client is mid-burst. The transport changes (socket buffers,
  // the epoll loop, write backpressure may all hold in-flight data the
  // kill destroys) but the invariant doesn't: whatever auto-checkpoint
  // last completed restores, and restored estimates never regress.
  ::signal(SIGPIPE, SIG_IGN);

  const std::string checkpoint = TempPath("tcp_ckpt");
  std::vector<double> previous(kBatteryUsers, 0.0);

  for (int round = 0; round < kRounds; ++round) {
    std::uint16_t port = 0;
    const pid_t pid = SpawnServeTcp(checkpoint, &port);
    ASSERT_GT(pid, 0) << "TCP spawn failed in round " << round;

    const int sock = ConnectBlocking(port);
    ASSERT_GE(sock, 0) << "connect failed in round " << round;

    // Live load over the socket. Only the first checkpoint's worth of
    // replies is read back; the rest pile up in the socket buffers, so
    // the kill lands with the pipeline as full as it gets. The values
    // echo the stdin drill so estimates keep growing.
    bool wrote_all = true;
    for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
      const int user = 1 + i % kBatteryUsers;
      const int value = 1 + (round * kAddsPerRound + i) % 40;
      wrote_all = WriteLine(sock, "add " + std::to_string(user) + " " +
                                      std::to_string(value) + "\n");
      if (i % 16 == 0) ::usleep(2000);
    }
    EXPECT_TRUE(wrote_all) << "TCP server died before the kill in round "
                           << round;
    // Kill only once this round has a landed checkpoint, so every round
    // verifies real state rather than racing the first save.
    EXPECT_TRUE(AwaitReplies(sock, std::atoi(kCheckpointEvery), false))
        << "no checkpoint-covering reply before the kill in round " << round;

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(sock);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited on its own with status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL)
        << "child died of an unexpected signal (a crash under load?)";

    // Verification reuses the stdin transport: state is transport-
    // independent, so the checkpoint a TCP server wrote must restore
    // into any server.
    std::vector<double> current;
    ASSERT_TRUE(QueryBattery(checkpoint, &current))
        << "post-kill restore/query session failed in round " << round;
    ASSERT_EQ(current.size(), previous.size());
    for (int user = 0; user < kBatteryUsers; ++user) {
      EXPECT_GE(current[user], previous[user])
          << "round " << round << " regressed user " << (user + 1)
          << " — restored from a stale or fresh state";
    }
    previous = std::move(current);
  }

  double total = 0.0;
  for (const double estimate : previous) total += estimate;
  EXPECT_GT(total, 0.0);

  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".stripe-0").c_str());
  std::remove((checkpoint + ".stripe-1").c_str());
  std::remove((checkpoint + ".grid").c_str());
}

TEST(KillResumeDrill, TcpBinaryProtocolSurvivesSigkillMidLoadMonotonically) {
  // The TCP drill again, with every request a binary frame
  // (docs/PROTOCOL.md) instead of a text line. The kill now lands with
  // length-prefixed frames in flight — possibly split mid-prelude in
  // the socket buffers — and the invariant is unchanged: the last
  // completed auto-checkpoint restores, estimates never regress.
  ::signal(SIGPIPE, SIG_IGN);

  const std::string checkpoint = TempPath("tcp_bin_ckpt");
  std::vector<double> previous(kBatteryUsers, 0.0);

  for (int round = 0; round < kRounds; ++round) {
    std::uint16_t port = 0;
    const pid_t pid = SpawnServeTcp(checkpoint, &port);
    ASSERT_GT(pid, 0) << "TCP spawn failed in round " << round;

    const int sock = ConnectBlocking(port);
    ASSERT_GE(sock, 0) << "connect failed in round " << round;

    // The same load shape as the text drill, encoded as request frames.
    // Past the first checkpoint's replies, the rest pile up unread so
    // the kill hits a full pipeline.
    bool wrote_all = true;
    for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
      himpact::Command add;
      add.kind = himpact::CommandKind::kAdd;
      add.user = static_cast<std::uint64_t>(1 + i % kBatteryUsers);
      add.value =
          static_cast<std::uint64_t>(1 + (round * kAddsPerRound + i) % 40);
      wrote_all = WriteLine(sock, himpact::EncodeRequestFrame(add));
      if (i % 16 == 0) ::usleep(2000);
    }
    EXPECT_TRUE(wrote_all) << "TCP server died before the kill in round "
                           << round;
    // Kill only once this round has a landed checkpoint, so every round
    // verifies real state rather than racing the first save.
    EXPECT_TRUE(AwaitReplies(sock, std::atoi(kCheckpointEvery), true))
        << "no checkpoint-covering reply before the kill in round " << round;

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(sock);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited on its own with status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL)
        << "child died of an unexpected signal (a crash under load?)";

    // Verification stays on the text/stdin transport: the state a
    // binary-fed server checkpointed must restore anywhere.
    std::vector<double> current;
    ASSERT_TRUE(QueryBattery(checkpoint, &current))
        << "post-kill restore/query session failed in round " << round;
    ASSERT_EQ(current.size(), previous.size());
    for (int user = 0; user < kBatteryUsers; ++user) {
      EXPECT_GE(current[user], previous[user])
          << "round " << round << " regressed user " << (user + 1)
          << " — restored from a stale or fresh state";
    }
    previous = std::move(current);
  }

  double total = 0.0;
  for (const double estimate : previous) total += estimate;
  EXPECT_GT(total, 0.0);

  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".stripe-0").c_str());
  std::remove((checkpoint + ".stripe-1").c_str());
  std::remove((checkpoint + ".grid").c_str());
}

// Like QueryBattery, but returns the raw `H ...` reply lines — the
// WAL drill compares them byte-for-byte against an uncrashed twin's.
bool QueryBatteryLines(const std::string& checkpoint,
                       std::vector<std::string>* lines,
                       const std::string& extra_flags = "") {
  const std::string input_path = TempPath("query_lines_in");
  std::string script;
  for (int user = 1; user <= kBatteryUsers; ++user) {
    script += "get " + std::to_string(user) + "\n";
  }
  script += "quit\n";
  std::FILE* file = std::fopen(input_path.c_str(), "w");
  if (file == nullptr) return false;
  std::fwrite(script.data(), 1, script.size(), file);
  std::fclose(file);

  const std::string command = std::string(HSTREAM_SERVE_PATH) +
                              " --stripes 2 --no-heavy --restore " +
                              checkpoint + extra_flags + " < " + input_path +
                              " 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string output;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    output.append(chunk, n);
  }
  const int raw = ::pclose(pipe);
  std::remove(input_path.c_str());
  if (!(raw >= 0 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)) return false;

  lines->clear();
  std::size_t start = 0;
  for (int user = 1; user <= kBatteryUsers; ++user) {
    const std::size_t end = output.find('\n', start);
    if (end == std::string::npos) return false;
    lines->push_back(output.substr(start, end - start));
    start = end + 1;
    if (lines->back().rfind("H " + std::to_string(user) + " ", 0) != 0) {
      return false;
    }
  }
  return true;
}

// "H <user> <estimate> <tier> <events>" -> events (the last token).
std::uint64_t EventsFromLine(const std::string& line) {
  const std::size_t space = line.find_last_of(' ');
  if (space == std::string::npos) return 0;
  return std::strtoull(line.c_str() + space + 1, nullptr, 10);
}

// Feeds a *fresh* server exactly `durable[u]`'s values for each battery
// user and returns its `H ...` reply lines: the uncrashed twin of a
// recovery that reports those per-user event counts.
bool TwinBatteryLines(const std::vector<std::vector<int>>& durable,
                      std::vector<std::string>* lines) {
  const std::string input_path = TempPath("twin_in");
  std::string script;
  for (int user = 1; user <= kBatteryUsers; ++user) {
    for (const int value : durable[static_cast<std::size_t>(user - 1)]) {
      script += "add " + std::to_string(user) + " " + std::to_string(value) +
                "\n";
    }
  }
  for (int user = 1; user <= kBatteryUsers; ++user) {
    script += "get " + std::to_string(user) + "\n";
  }
  script += "quit\n";
  std::FILE* file = std::fopen(input_path.c_str(), "w");
  if (file == nullptr) return false;
  std::fwrite(script.data(), 1, script.size(), file);
  std::fclose(file);

  const std::string command = std::string(HSTREAM_SERVE_PATH) +
                              " --stripes 2 --no-heavy < " + input_path +
                              " 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string output;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    output.append(chunk, n);
  }
  const int raw = ::pclose(pipe);
  std::remove(input_path.c_str());
  if (!(raw >= 0 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0)) return false;

  // Skip the add acks ("OK ...") and the quit farewell; the battery
  // replies are exactly the `H ` lines, in query order.
  lines->clear();
  std::size_t start = 0;
  while (start < output.size()) {
    const std::size_t end = output.find('\n', start);
    if (end == std::string::npos) break;
    const std::string line = output.substr(start, end - start);
    start = end + 1;
    if (line.rfind("H ", 0) == 0) lines->push_back(line);
  }
  return lines->size() == static_cast<std::size_t>(kBatteryUsers);
}

// The WAL drill under one `--wal-fsync` policy. The monotone drills
// accept losing everything since the last checkpoint. With a WAL the bar
// rises to *exact*: after SIGKILL, checkpoint + WAL replay must
// reconstruct precisely the durable per-user event prefixes — so every
// `get` reply line from the recovered server must be byte-identical to a
// fresh uncrashed twin fed exactly those events. Monotone-but-lossy
// recovery (the pre-WAL behavior) fails this; so would replaying a
// record twice (events too high) or out of order. And under every
// policy the durable prefix covers every acknowledged write: a reply
// leaves only after its record was written, so a process crash loses
// none of them.
void RunWalTwinDrill(const std::string& fsync) {
  ::signal(SIGPIPE, SIG_IGN);

  const std::string root = TempPath(("wal_" + fsync).c_str());
  const std::string wal_dir = root + "/wal";
  const std::string checkpoint = root + "/ckpt";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(wal_dir);
  const std::vector<std::string> wal_flags = {"--wal-dir", wal_dir,
                                              "--wal-fsync", fsync};
  const std::string query_flags =
      " --wal-dir " + wal_dir + " --wal-fsync " + fsync;

  // Per-user durable history, extended each round by however many of
  // that round's writes the recovery proves survived.
  std::vector<std::vector<int>> durable(kBatteryUsers);
  std::vector<std::uint64_t> prev_events(kBatteryUsers, 0);

  for (int round = 0; round < kRounds; ++round) {
    int stdin_fd = -1;
    int stdout_fd = -1;
    const pid_t pid = SpawnServe(checkpoint, &stdin_fd, &stdout_fd, wal_flags);
    ASSERT_GT(pid, 0) << "spawn failed in round " << round;

    std::vector<std::vector<int>> written(kBatteryUsers);
    bool wrote_all = true;
    for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
      const int user = 1 + i % kBatteryUsers;
      const int value = 1 + (round * kAddsPerRound + i) % 40;
      wrote_all = WriteLine(stdin_fd, "add " + std::to_string(user) + " " +
                                          std::to_string(value) + "\n");
      written[static_cast<std::size_t>(user - 1)].push_back(value);
      if (i % 16 == 0) ::usleep(2000);
    }
    EXPECT_TRUE(wrote_all) << "child died before the kill in round "
                           << round;
    int acked = 0;
    ASSERT_TRUE(AwaitReplies(stdout_fd, std::atoi(kCheckpointEvery), false,
                             &acked))
        << "no auto-checkpoint completed in round " << round;
    // Replies come in request order: the first `acked` writes were
    // acknowledged before the kill.
    std::vector<std::uint64_t> acked_per_user(kBatteryUsers, 0);
    for (int i = 0; i < acked && i < kAddsPerRound; ++i) {
      ++acked_per_user[static_cast<std::size_t>(i % kBatteryUsers)];
    }

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(stdin_fd);
    ::close(stdout_fd);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited on its own with status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL)
        << "child died of an unexpected signal (a crash under load?)";

    // Recover (checkpoint restore + WAL replay) and read the battery.
    std::vector<std::string> recovered;
    ASSERT_TRUE(QueryBatteryLines(checkpoint, &recovered, query_flags))
        << "post-kill WAL recovery failed in round " << round;

    // The per-user event counts identify the durable prefix of this
    // round's writes. They must be monotone and within what was sent.
    for (int u = 0; u < kBatteryUsers; ++u) {
      const std::uint64_t events =
          EventsFromLine(recovered[static_cast<std::size_t>(u)]);
      ASSERT_GE(events, prev_events[static_cast<std::size_t>(u)])
          << "round " << round << " lost durable events for user " << (u + 1);
      const std::uint64_t applied =
          events - prev_events[static_cast<std::size_t>(u)];
      const auto& sent = written[static_cast<std::size_t>(u)];
      ASSERT_LE(applied, sent.size())
          << "round " << round << " invented events for user " << (u + 1);
      EXPECT_GE(applied, acked_per_user[static_cast<std::size_t>(u)])
          << "round " << round << " (" << fsync << ") lost acknowledged "
          << "events for user " << (u + 1);
      durable[static_cast<std::size_t>(u)].insert(
          durable[static_cast<std::size_t>(u)].end(), sent.begin(),
          sent.begin() + static_cast<std::ptrdiff_t>(applied));
      prev_events[static_cast<std::size_t>(u)] = events;
    }

    // The twin consumed exactly the durable prefixes, uncrashed. Every
    // reply line — estimate, tier, event count — must match exactly.
    std::vector<std::string> twin;
    ASSERT_TRUE(TwinBatteryLines(durable, &twin))
        << "twin session failed in round " << round;
    for (int u = 0; u < kBatteryUsers; ++u) {
      EXPECT_EQ(recovered[static_cast<std::size_t>(u)],
                twin[static_cast<std::size_t>(u)])
          << "round " << round << ": recovery diverged from the uncrashed "
          << "twin for user " << (u + 1);
    }
  }

  // The drill must have preserved real state, not vacuous zeros.
  std::uint64_t total_events = 0;
  for (const std::uint64_t events : prev_events) total_events += events;
  EXPECT_GT(total_events, 0u);

  std::filesystem::remove_all(root);
}

TEST(KillResumeDrill, WalRecoveryIsByteIdenticalToUncrashedTwin) {
  RunWalTwinDrill("always");
}

TEST(KillResumeDrill, GroupFsyncRecoveryKeepsEveryAcknowledgedWrite) {
  RunWalTwinDrill("group");
}

TEST(KillResumeDrill, NeverFsyncRecoveryKeepsEveryAcknowledgedWrite) {
  RunWalTwinDrill("never");
}

// Reads reply lines from the captured stdout until one contains
// `needle` (returned) or the stream ends / `max_lines` pass.
bool ReadLineContaining(int fd, const std::string& needle,
                        std::string* found, int max_lines) {
  std::string line;
  int lines = 0;
  char byte = 0;
  while (lines < max_lines) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // child closed stdout
    if (byte != '\n') {
      line += byte;
      continue;
    }
    if (line.find(needle) != std::string::npos) {
      *found = line;
      return true;
    }
    line.clear();
    ++lines;
  }
  return false;
}

TEST(KillResumeDrill, WalAppendFailDegradesLoudlyAndStillRecovers) {
  // With wal-append-fail armed mid-stream the server must NOT crash and
  // must NOT drop writes silently: it keeps serving, `health` flags the
  // WAL as degraded, and after a SIGKILL the state still recovers to at
  // least what the checkpoint covers (the WAL simply stops adding the
  // between-checkpoints tail it normally would).
  ::signal(SIGPIPE, SIG_IGN);

  const std::string root = TempPath("wal_fault");
  const std::string wal_dir = root + "/wal";
  const std::string checkpoint = root + "/ckpt";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(wal_dir);

  int stdin_fd = -1;
  int stdout_fd = -1;
  // Skip the first 40 appends so the failure lands mid-stream, with
  // durable WAL records and completed checkpoints already behind it.
  const pid_t pid = SpawnServe(
      checkpoint, &stdin_fd, &stdout_fd,
      {"--wal-dir", wal_dir, "--wal-fsync", "always", "--faults",
       "wal-append-fail:40"});
  ASSERT_GT(pid, 0);

  bool wrote_all = true;
  for (int i = 0; i < kAddsPerRound && wrote_all; ++i) {
    const int user = 1 + i % kBatteryUsers;
    const int value = 1 + i % 40;
    wrote_all = WriteLine(stdin_fd, "add " + std::to_string(user) + " " +
                                        std::to_string(value) + "\n");
  }
  ASSERT_TRUE(wrote_all) << "server died while the WAL was failing";
  ASSERT_TRUE(AwaitReplies(stdout_fd, std::atoi(kCheckpointEvery), false))
      << "no auto-checkpoint completed";

  // The server is still answering after the fault fired — and says so.
  ASSERT_TRUE(WriteLine(stdin_fd, "health\n"));
  std::string health;
  ASSERT_TRUE(ReadLineContaining(stdout_fd, "\"wal\":", &health,
                                 kAddsPerRound + 8))
      << "no health reply after the WAL fault - did the server wedge?";
  EXPECT_NE(health.find("\"enabled\":true"), std::string::npos) << health;
  EXPECT_NE(health.find("\"degraded\":true"), std::string::npos)
      << "wal-append-fail did not surface in health: " << health;

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ::close(stdin_fd);
  ::close(stdout_fd);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Recovery still works, and the WAL-assisted restore dominates the
  // checkpoint-only one (it may equal it: the log went quiet when it
  // degraded; what it must never do is regress or fail).
  std::vector<double> with_wal;
  std::vector<double> checkpoint_only;
  ASSERT_TRUE(QueryBattery(checkpoint, &with_wal,
                           " --wal-dir " + wal_dir + " --wal-fsync always"))
      << "recovery with the degraded WAL directory failed";
  ASSERT_TRUE(QueryBattery(checkpoint, &checkpoint_only))
      << "checkpoint-only recovery failed";
  double total = 0.0;
  for (int u = 0; u < kBatteryUsers; ++u) {
    EXPECT_GE(with_wal[static_cast<std::size_t>(u)],
              checkpoint_only[static_cast<std::size_t>(u)])
        << "WAL replay regressed user " << (u + 1)
        << " below the checkpoint state";
    total += checkpoint_only[static_cast<std::size_t>(u)];
  }
  EXPECT_GT(total, 0.0) << "checkpoint recovered no state at all";

  std::filesystem::remove_all(root);
}

}  // namespace
