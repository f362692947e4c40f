// Tests for the hstream_serve line protocol: the strict parser directly
// (service/protocol.h is pure, no I/O), then the real binary through
// popen (path injected via HSTREAM_SERVE_PATH), including the
// kill-and-resume property at the protocol level — a server restarted
// from `save` answers the same queries with byte-identical replies.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/envelope.h"
#include "io/checkpoint.h"
#include "fault_injection.h"
#include "service/protocol.h"

namespace {

using namespace himpact;

// --- parser ------------------------------------------------------------------

TEST(ParseCommandLine, ParsesEveryVerb) {
  Command command = ParseCommandLine("add 7 12").value();
  EXPECT_EQ(command.kind, CommandKind::kAdd);
  EXPECT_EQ(command.user, 7u);
  EXPECT_EQ(command.value, 12u);

  command = ParseCommandLine("paper 3 9 1,2,5").value();
  EXPECT_EQ(command.kind, CommandKind::kPaper);
  EXPECT_EQ(command.paper.paper, 3u);
  EXPECT_EQ(command.paper.citations, 9u);
  ASSERT_EQ(command.paper.authors.size(), 3);
  EXPECT_EQ(command.paper.authors[0], 1u);
  EXPECT_EQ(command.paper.authors[2], 5u);

  command = ParseCommandLine("get 42").value();
  EXPECT_EQ(command.kind, CommandKind::kGet);
  EXPECT_EQ(command.user, 42u);

  command = ParseCommandLine("top 5").value();
  EXPECT_EQ(command.kind, CommandKind::kTop);
  EXPECT_EQ(command.value, 5u);

  EXPECT_EQ(ParseCommandLine("heavy").value().kind, CommandKind::kHeavy);
  EXPECT_EQ(ParseCommandLine("stats").value().kind, CommandKind::kStats);
  command = ParseCommandLine("save /tmp/x.ckpt").value();
  EXPECT_EQ(command.kind, CommandKind::kSave);
  EXPECT_EQ(command.path, "/tmp/x.ckpt");
  EXPECT_EQ(ParseCommandLine("quit").value().kind, CommandKind::kQuit);
}

TEST(ParseCommandLine, RejectsMalformedInput) {
  // One reason per rejection class; the server turns each into ERR.
  EXPECT_FALSE(ParseCommandLine("").ok());
  EXPECT_FALSE(ParseCommandLine("   ").ok());
  EXPECT_FALSE(ParseCommandLine("frobnicate 1").ok());
  EXPECT_FALSE(ParseCommandLine("add 7").ok());           // missing value
  EXPECT_FALSE(ParseCommandLine("add 7 12 9").ok());      // trailing token
  EXPECT_FALSE(ParseCommandLine("add -1 5").ok());        // signed id
  EXPECT_FALSE(ParseCommandLine("add 7 1.5").ok());       // non-integer
  EXPECT_FALSE(ParseCommandLine("add  7 5").ok());        // doubled space
  EXPECT_FALSE(ParseCommandLine("get").ok());
  EXPECT_FALSE(ParseCommandLine("top 0").ok());           // k must be >= 1
  EXPECT_FALSE(ParseCommandLine("top x").ok());
  EXPECT_FALSE(ParseCommandLine("heavy now").ok());
  EXPECT_FALSE(ParseCommandLine("save").ok());
  // Every save is a full save: a mode token is a usage error.
  for (const char* mode : {"incr", "full"}) {
    const StatusOr<Command> moded =
        ParseCommandLine(std::string("save /tmp/x.ckpt ") + mode);
    ASSERT_FALSE(moded.ok()) << mode;
    EXPECT_EQ(moded.status().message(), "usage: save <path>") << mode;
  }
  EXPECT_FALSE(ParseCommandLine("quit please").ok());
  EXPECT_FALSE(ParseCommandLine("paper 1 2").ok());       // no authors
  EXPECT_FALSE(ParseCommandLine("paper 1 2 3,3").ok());   // duplicate author
  EXPECT_FALSE(ParseCommandLine("paper 1 2 ,").ok());     // empty ids
  EXPECT_FALSE(
      ParseCommandLine("paper 1 2 1,2,3,4,5,6,7,8,9").ok());  // > max authors
}

TEST(FormatEstimate, IsStableAndCompact) {
  EXPECT_EQ(FormatEstimate(0.0), "0");
  EXPECT_EQ(FormatEstimate(4.0), "4");
  EXPECT_EQ(FormatEstimate(4.4), "4.4");
}

TEST(TierName, NamesEveryTier) {
  EXPECT_STREQ(TierName(0), "cold");
  EXPECT_STREQ(TierName(1), "hot");
  EXPECT_STREQ(TierName(2), "frozen");
  EXPECT_STREQ(TierName(7), "unknown");
}

// --- the real binary ---------------------------------------------------------

std::string TempPath(const char* name) {
  std::string path = "/tmp/himpact_serve_test_";
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
  std::string stdout_text;  // what `redirect` sends into the pipe
};

// Runs hstream_serve on `input_path`. `redirect` picks what the result
// captures: stdout by default, stderr with "2>&1 >/dev/null".
RunResult RunServe(const std::string& args, const std::string& input_path,
                   const std::string& redirect = "2>/dev/null") {
  const std::string command = std::string(HSTREAM_SERVE_PATH) + " " + args +
                              " < " + input_path + " " + redirect;
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

std::string IngestScript(int offset, int count) {
  std::string script;
  for (int i = 0; i < count; ++i) {
    const int user = 1 + (i * 37 + offset) % 50;
    const int value = 1 + (i * 13) % 200;
    script += "add " + std::to_string(user) + " " + std::to_string(value) +
              "\n";
  }
  return script;
}

std::string QueryScript() {
  std::string script;
  for (int user = 1; user <= 50; ++user) {
    script += "get " + std::to_string(user) + "\n";
  }
  script += "top 10\nstats\nquit\n";
  return script;
}

TEST(ServeBinary, AnswersTheBasicSession) {
  const std::string input = TempPath("basic_in");
  WriteTextFile(input,
                "add 7 12\nadd 7 5\nget 7\nget 404\npaper 1 9 2,3\n"
                "top 3\nbogus\nadd 7\nsave x.ckpt incr\nsave x.ckpt full\n"
                "quit\n");
  const RunResult result = RunServe("--stripes 2 --no-heavy", input);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text,
            "OK 1\nOK 2\nH 7 2 cold 2\nH 404 0 none 0\nOK 2\n"
            "TOP 7:2 2:1 3:1\nERR unknown command 'bogus'\n"
            "ERR usage: add <user> <value>\nERR usage: save <path>\n"
            "ERR usage: save <path>\nBYE\n");
  std::remove(input.c_str());
}

// One row per rejected flag combination: hstream_serve must exit 2
// before serving anything, naming the problem on its first stderr line.
struct BadFlagCase {
  const char* args;
  const char* first_stderr_line;
};

constexpr BadFlagCase kBadFlagCases[] = {
    {"--stripes 0", "bad value for --stripes: '0' (want 1..4096)"},
    {"--stripes banana",
     "bad value for --stripes: 'banana' (expected an unsigned integer)"},
    {"--budget-mb -4",
     "bad value for --budget-mb: '-4' (expected an unsigned integer)"},
    {"--frobnicate", "unknown flag: --frobnicate"},
    {"--stripes", "missing value for --stripes"},
    {"--checkpoint-every 5",
     "--checkpoint-every requires --checkpoint FILE (there is no path to "
     "checkpoint to)"},
    {"--checkpoint unused.ckpt --checkpoint-every 0",
     "--checkpoint-every must be >= 1 when --checkpoint is set (0 would "
     "never checkpoint)"},
    {"--wal-fsync sometimes", "--wal-fsync must be always, group, or never"},
    {"--listen 99999", "bad value for --listen: '99999' (want 0..65535)"},
    {"--wal-group-bytes 0",
     "bad value for --wal-group-bytes: '0' (want 1..1073741824)"},
    // Duration flags stop where the conversion to nanoseconds would wrap.
    {"--deadline-us 18446744073709552",
     "bad value for --deadline-us: '18446744073709552' (want "
     "0..18446744073709551)"},
    {"--idle-timeout-ms 18446744073710",
     "bad value for --idle-timeout-ms: '18446744073710' (want "
     "0..18446744073709)"},
    {"--request-timeout-ms 18446744073710",
     "bad value for --request-timeout-ms: '18446744073710' (want "
     "0..18446744073709)"},
    {"--evict-min-idle-ms 18446744073710",
     "bad value for --evict-min-idle-ms: '18446744073710' (want "
     "0..18446744073709)"},
    {"--max-inflight 4", "unknown flag: --max-inflight"},
    {"--checkpoint-mode full", "unknown flag: --checkpoint-mode"},
    {"--max-chain-len 4", "unknown flag: --max-chain-len"},
};

TEST(ServeBinary, RejectsBadFlags) {
  const std::string input = TempPath("flags_in");
  WriteTextFile(input, "quit\n");
  for (const BadFlagCase& bad : kBadFlagCases) {
    const RunResult result = RunServe(bad.args, input, "2>&1 >/dev/null");
    const std::string& err = result.stdout_text;
    EXPECT_EQ(result.exit_code, 2) << bad.args;
    EXPECT_EQ(err.substr(0, err.find('\n')), bad.first_stderr_line)
        << bad.args;
  }
  std::remove(input.c_str());
}

// An eps too small for a sketch grid used to pass the flag check and
// hang the server on its first promotion (the grid's level loop never
// ends once 1 + eps == 1). The service now refuses it at startup.
TEST(ServeBinary, RefusesAnEpsNoSketchGridCanHold) {
  const std::string input = TempPath("tiny_eps_in");
  WriteTextFile(input, IngestScript(0, 70) + "quit\n");
  const RunResult result =
      RunServe("--eps 1e-300 --stripes 1 --no-heavy", input, "2>&1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("eps too small for max_h"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("OK"), std::string::npos);
  std::remove(input.c_str());
}

// `--deadline-us` bounds only `top`'s stripe scan: a write is never
// answered as failed after it was applied (a retry would count the
// citation twice), so even a 1us deadline leaves every reply unchanged.
TEST(ServeBinary, DeadlineNeverFailsAnAppliedWrite) {
  const std::string input = TempPath("deadline_in");
  WriteTextFile(input, IngestScript(0, 300) +
                           "paper 1 9 2,3\npaper 2 40 4\npaper 3 7 5,6,7\n"
                           "top 5\n" +
                           QueryScript());
  const RunResult plain = RunServe("--stripes 2", input);
  const RunResult bounded = RunServe("--stripes 2 --deadline-us 1", input);
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(bounded.exit_code, 0);
  EXPECT_EQ(bounded.stdout_text, plain.stdout_text);
  EXPECT_EQ(plain.stdout_text.find("DEADLINE_EXCEEDED"), std::string::npos);
  std::remove(input.c_str());
}

TEST(ServeBinary, SaveThenRestoreAnswersByteIdentically) {
  const std::string checkpoint = TempPath("resume_ckpt");
  const std::string save_input = TempPath("resume_save_in");
  const std::string query_input = TempPath("resume_query_in");
  const std::string flags = "--stripes 4 --promote-threshold 8";

  // Session 1: ingest, checkpoint, then answer the query battery.
  WriteTextFile(save_input, IngestScript(0, 2000) + "save " + checkpoint +
                                "\n" + QueryScript());
  const RunResult first = RunServe(flags, save_input);
  ASSERT_EQ(first.exit_code, 0);
  const std::size_t saved_marker =
      first.stdout_text.find("OK saved " + checkpoint);
  ASSERT_NE(saved_marker, std::string::npos);
  const std::string first_answers =
      first.stdout_text.substr(first.stdout_text.find('\n', saved_marker) + 1);

  // Session 2 ("the restarted server"): restore, answer the same
  // battery — replies must match byte for byte.
  WriteTextFile(query_input, QueryScript());
  const RunResult second =
      RunServe(flags + " --restore " + checkpoint, query_input);
  ASSERT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.stdout_text, first_answers);

  // A mismatched configuration falls back to a fresh service (stderr
  // note, discarded here) instead of silently restoring.
  const RunResult mismatched = RunServe(
      "--stripes 4 --promote-threshold 9 --restore " + checkpoint,
      query_input);
  ASSERT_EQ(mismatched.exit_code, 0);
  EXPECT_NE(mismatched.stdout_text, first_answers);

  std::remove(save_input.c_str());
  std::remove(query_input.c_str());
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".grid").c_str());
  for (int i = 0; i < 4; ++i) {
    std::remove((checkpoint + ".stripe-" + std::to_string(i)).c_str());
  }
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

// Writes the `path.head` an earlier build's delta chain kept next to its
// full save: a `kDeltaHead` envelope naming `generation`.
void WriteChainHead(const std::string& path, std::uint64_t generation) {
  ByteWriter head;
  head.U64(0x31444844504D4948ULL);  // HIMPDHD1
  head.U64(generation);
  ASSERT_TRUE(WriteCheckpointFile(path + ".head", CheckpointTag::kDeltaHead,
                                  head.buffer())
                  .ok());
}

TEST(ServeBinary, RestoreOfADeltaChainExitsWithoutTouchingIt) {
  const std::string checkpoint = TempPath("chain_ckpt");
  const std::string save_input = TempPath("chain_save_in");
  const std::string run_input = TempPath("chain_run_in");
  const std::string flags = "--stripes 4 --promote-threshold 8";
  WriteTextFile(save_input,
                IngestScript(0, 500) + "save " + checkpoint + "\nquit\n");
  ASSERT_EQ(RunServe(flags, save_input).exit_code, 0);
  WriteTextFile(run_input, "add 7 1\nquit\n");

  // Starting fresh over a chain would let the first save replace it, so
  // the server refuses to start: exit 1, nothing served, nothing written.
  WriteChainHead(checkpoint, 3);
  const std::string stripe = ReadFileBytes(checkpoint + ".stripe-0");
  const std::string manifest = ReadFileBytes(checkpoint);
  const std::string run_flags = flags + " --restore " + checkpoint +
                                " --checkpoint " + checkpoint +
                                " --checkpoint-every 1";
  const RunResult refused = RunServe(run_flags, run_input, "2>&1");
  EXPECT_EQ(refused.exit_code, 1);
  EXPECT_EQ(refused.stdout_text.find("OK"), std::string::npos)
      << refused.stdout_text;
  EXPECT_NE(refused.stdout_text.find("delta generation 3"), std::string::npos)
      << refused.stdout_text;
  EXPECT_EQ(::access((checkpoint + ".head").c_str(), F_OK), 0);
  EXPECT_EQ(ReadFileBytes(checkpoint + ".stripe-0"), stripe);
  EXPECT_EQ(ReadFileBytes(checkpoint), manifest);

  // A head at generation 0 is a plain full save: the server restores it
  // and its first save removes the head.
  WriteChainHead(checkpoint, 0);
  EXPECT_EQ(RunServe(run_flags, run_input).exit_code, 0);
  EXPECT_NE(::access((checkpoint + ".head").c_str(), F_OK), 0);

  std::remove(save_input.c_str());
  std::remove(run_input.c_str());
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".grid").c_str());
  for (int i = 0; i < 4; ++i) {
    std::remove((checkpoint + ".stripe-" + std::to_string(i)).c_str());
  }
}

TEST(ServeBinary, RestoreOfAReservoirFormatGridExitsWithoutTouchingIt) {
  const std::string checkpoint = TempPath("reservoir_ckpt");
  const std::string save_input = TempPath("reservoir_save_in");
  const std::string run_input = TempPath("reservoir_run_in");
  const std::string flags = "--stripes 4 --promote-threshold 8";
  WriteTextFile(save_input,
                IngestScript(0, 500) + "save " + checkpoint + "\nquit\n");
  ASSERT_EQ(RunServe(flags, save_input).exit_code, 0);
  WriteTextFile(run_input, "add 7 1\nquit\n");
  ASSERT_TRUE(test::RewriteGridMagicVersion(checkpoint + ".grid", '1'));

  // Same refusal as a delta chain: exit 1, nothing served, every file of
  // the checkpoint left as it was.
  std::vector<std::string> files = {checkpoint, checkpoint + ".grid"};
  for (int i = 0; i < 4; ++i) {
    files.push_back(checkpoint + ".stripe-" + std::to_string(i));
  }
  std::vector<std::string> before;
  for (const std::string& file : files) before.push_back(ReadFileBytes(file));
  const RunResult refused = RunServe(
      flags + " --restore " + checkpoint + " --checkpoint " + checkpoint +
          " --checkpoint-every 1",
      run_input, "2>&1");
  EXPECT_EQ(refused.exit_code, 1);
  EXPECT_EQ(refused.stdout_text.find("OK"), std::string::npos)
      << refused.stdout_text;
  EXPECT_NE(refused.stdout_text.find("HIMPHHS1"), std::string::npos)
      << refused.stdout_text;
  EXPECT_NE(refused.stdout_text.find("c7a62bd"), std::string::npos)
      << refused.stdout_text;
  for (std::size_t f = 0; f < files.size(); ++f) {
    EXPECT_EQ(ReadFileBytes(files[f]), before[f]) << files[f];
  }

  std::remove(save_input.c_str());
  std::remove(run_input.c_str());
  for (const std::string& file : files) std::remove(file.c_str());
}

TEST(ServeBinary, RestoreOfAMalformedGridStartsFresh) {
  const std::string checkpoint = TempPath("malformed_ckpt");
  const std::string save_input = TempPath("malformed_save_in");
  const std::string run_input = TempPath("malformed_run_in");
  const std::string flags = "--stripes 4 --promote-threshold 8";
  WriteTextFile(save_input,
                IngestScript(0, 500) + "save " + checkpoint + "\nquit\n");
  ASSERT_EQ(RunServe(flags, save_input).exit_code, 0);
  WriteTextFile(run_input, "add 7 1\nquit\n");
  ASSERT_TRUE(test::RewriteGridMagicVersion(checkpoint + ".grid", '7'));

  // A grid that does not decode is corruption, not a refused format:
  // the server logs it, starts fresh and serves.
  const RunResult fresh =
      RunServe(flags + " --restore " + checkpoint, run_input, "2>&1");
  EXPECT_EQ(fresh.exit_code, 0) << fresh.stdout_text;
  EXPECT_NE(fresh.stdout_text.find("starting fresh"), std::string::npos)
      << fresh.stdout_text;
  EXPECT_NE(fresh.stdout_text.find("OK 1"), std::string::npos)
      << fresh.stdout_text;

  std::remove(save_input.c_str());
  std::remove(run_input.c_str());
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".grid").c_str());
  for (int i = 0; i < 4; ++i) {
    std::remove((checkpoint + ".stripe-" + std::to_string(i)).c_str());
  }
}

}  // namespace
