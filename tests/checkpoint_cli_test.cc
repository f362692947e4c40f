// Kill-and-resume equivalence for hstream_cli: a run interrupted by
// --stop-after and restarted from its --checkpoint must print exactly the
// same report as an uninterrupted run, in every mode, unsharded and
// sharded. Also exercises the corrupt-checkpoint and changed-shard-count
// fallbacks and the hardened flag parser end to end.
//
// The harness invokes the real binary (path injected via the
// HSTREAM_CLI_PATH compile definition) through popen, feeding stdin from
// a temp file and capturing stdout.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fault_injection.h"

namespace {

std::string TempPath(const char* name) {
  std::string path = "/tmp/himpact_cli_test_";
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

// Runs the CLI with `args`, stdin redirected from `input_path`, stderr
// discarded, and returns its exit code and captured stdout.
RunResult RunCli(const std::string& args, const std::string& input_path) {
  const std::string command = std::string(HSTREAM_CLI_PATH) + " " + args +
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

std::string AggregateInput() {
  std::string text;
  for (int i = 1; i <= 500; ++i) {
    text += std::to_string(i * 37 % 400);
    text += '\n';
  }
  return text;
}

std::string CashInput() {
  std::string text;
  for (int i = 0; i < 600; ++i) {
    text += std::to_string(i * 13 % 500);
    text += ' ';
    text += std::to_string(1 + i % 4);
    text += '\n';
  }
  return text;
}

std::string PapersInput() {
  std::string text;
  for (int p = 0; p < 300; ++p) {
    text += std::to_string(p);
    text += ' ';
    text += std::to_string(1 + (p * 7) % 60);
    text += ' ';
    text += std::to_string(p % 6);
    if (p % 2 == 0) {
      text += ',';
      text += std::to_string(6 + p % 3);
    }
    text += '\n';
  }
  return text;
}

// The core equivalence check, shared by the three mode tests.
void ExpectKillAndResumeEquivalent(const char* name, const std::string& flags,
                                   const std::string& input,
                                   std::uint64_t stop_after) {
  const std::string input_path = TempPath((std::string(name) + "_in").c_str());
  const std::string checkpoint =
      TempPath((std::string(name) + "_ck").c_str());
  WriteTextFile(input_path, input);

  const RunResult uninterrupted = RunCli(flags, input_path);
  ASSERT_EQ(uninterrupted.exit_code, 0) << name;
  ASSERT_FALSE(uninterrupted.stdout_text.empty()) << name;

  // Interrupted run: consumes stop_after events, checkpoints, exits.
  const RunResult interrupted =
      RunCli(flags + " --checkpoint " + checkpoint + " --checkpoint-every 50" +
                 " --stop-after " + std::to_string(stop_after),
             input_path);
  ASSERT_EQ(interrupted.exit_code, 0) << name;
  EXPECT_TRUE(interrupted.stdout_text.empty()) << name;

  // Resumed run: restores, skips what was consumed, finishes the stream.
  const RunResult resumed =
      RunCli(flags + " --checkpoint " + checkpoint, input_path);
  ASSERT_EQ(resumed.exit_code, 0) << name;
  EXPECT_EQ(resumed.stdout_text, uninterrupted.stdout_text) << name;

  std::remove(input_path.c_str());
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".engine").c_str());
  for (int i = 0; i < 3; ++i) {
    std::remove((checkpoint + ".engine.shard-" + std::to_string(i)).c_str());
  }
}

TEST(CheckpointCliTest, AggregateKillAndResume) {
  ExpectKillAndResumeEquivalent("aggregate", "--eps 0.1", AggregateInput(),
                                200);
}

TEST(CheckpointCliTest, CashRegisterKillAndResume) {
  ExpectKillAndResumeEquivalent(
      "cash", "--mode cash --universe 500 --eps 0.25 --seed 7", CashInput(),
      251);
}

TEST(CheckpointCliTest, PapersKillAndResume) {
  ExpectKillAndResumeEquivalent(
      "papers", "--mode papers --universe 4096 --seed 11", PapersInput(), 123);
}

// The sharded paths print only deterministic columns (estimates and
// per-shard pushed counts), so the same byte-equality check applies.
TEST(CheckpointCliTest, ShardedAggregateKillAndResume) {
  ExpectKillAndResumeEquivalent("sharded_aggregate", "--eps 0.1 --shards 3",
                                AggregateInput(), 200);
}

TEST(CheckpointCliTest, ShardedCashRegisterKillAndResume) {
  ExpectKillAndResumeEquivalent(
      "sharded_cash",
      "--mode cash --universe 500 --eps 0.25 --seed 7 --shards 3 --batch 16",
      CashInput(), 251);
}

TEST(CheckpointCliTest, ShardedPapersKillAndResume) {
  ExpectKillAndResumeEquivalent(
      "sharded_papers", "--mode papers --universe 4096 --seed 11 --shards 3",
      PapersInput(), 123);
}

// The value printed on the line starting with `label`, up to the first
// double space ("Alg 1 estimate      : 12.0  (...)" -> "12.0").
std::string EstimateOn(const std::string& report, const std::string& label) {
  const std::size_t at = report.find(label);
  if (at == std::string::npos) return "";
  const std::size_t colon = report.find(": ", at);
  const std::size_t end = report.find("  ", colon + 2);
  return report.substr(colon + 2, end - colon - 2);
}

// Alg 1 and Alg 5/6 merge exactly, so the sharded estimate must equal
// the single-instance one.
TEST(CheckpointCliTest, ShardedEstimatesEqualUnsharded) {
  struct Case {
    const char* name;
    std::string flags;
    std::string input;
    const char* label;
  };
  const Case cases[] = {
      {"equal_aggregate", "--eps 0.1", AggregateInput(), "Alg 1 estimate"},
      {"equal_cash", "--mode cash --universe 500 --eps 0.25 --seed 7",
       CashInput(), "Alg 5/6 estimate"},
  };
  for (const Case& c : cases) {
    const std::string input_path = TempPath(c.name);
    WriteTextFile(input_path, c.input);
    const RunResult one = RunCli(c.flags + " --shards 1", input_path);
    const RunResult four =
        RunCli(c.flags + " --shards 4 --batch 8", input_path);
    ASSERT_EQ(one.exit_code, 0) << c.name;
    ASSERT_EQ(four.exit_code, 0) << c.name;
    const std::string expected = EstimateOn(one.stdout_text, c.label);
    EXPECT_FALSE(expected.empty()) << c.name;
    EXPECT_EQ(EstimateOn(four.stdout_text, c.label), expected) << c.name;
    std::remove(input_path.c_str());
  }
}

TEST(CheckpointCliTest, ShardCountChangeFallsBackToFreshRun) {
  const std::string input_path = TempPath("reshard_in");
  const std::string checkpoint = TempPath("reshard_ck");
  WriteTextFile(input_path, AggregateInput());

  // Checkpoint at 3 shards, resume at 2: the shard set cannot adopt
  // three shard envelopes, so the run must start over and match an
  // uninterrupted 2-shard run.
  const RunResult partial = RunCli(
      "--eps 0.1 --shards 3 --checkpoint " + checkpoint + " --stop-after 100",
      input_path);
  ASSERT_EQ(partial.exit_code, 0);
  const RunResult baseline = RunCli("--eps 0.1 --shards 2", input_path);
  ASSERT_EQ(baseline.exit_code, 0);
  const RunResult resumed =
      RunCli("--eps 0.1 --shards 2 --checkpoint " + checkpoint, input_path);
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.stdout_text, baseline.stdout_text);

  std::remove(input_path.c_str());
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".engine").c_str());
  for (int i = 0; i < 3; ++i) {
    std::remove((checkpoint + ".engine.shard-" + std::to_string(i)).c_str());
  }
}

TEST(CheckpointCliTest, CorruptCheckpointFallsBackToFreshRun) {
  const std::string input_path = TempPath("corrupt_in");
  const std::string checkpoint = TempPath("corrupt_ck");
  WriteTextFile(input_path, AggregateInput());

  const RunResult baseline = RunCli("--eps 0.1", input_path);
  ASSERT_EQ(baseline.exit_code, 0);

  // Plant a damaged checkpoint: the run must ignore it, process the whole
  // stream fresh, and still print the uninterrupted report.
  ASSERT_TRUE(himpact::test::WriteFileRaw(
      checkpoint, {0x48, 0x49, 0x43, 0x50, 0xff, 0xff}));
  const RunResult fallback =
      RunCli("--eps 0.1 --checkpoint " + checkpoint, input_path);
  ASSERT_EQ(fallback.exit_code, 0);
  EXPECT_EQ(fallback.stdout_text, baseline.stdout_text);

  std::remove(input_path.c_str());
  std::remove(checkpoint.c_str());
}

TEST(CheckpointCliTest, MismatchedParametersFallBackToFreshRun) {
  const std::string input_path = TempPath("mismatch_in");
  const std::string checkpoint = TempPath("mismatch_ck");
  WriteTextFile(input_path, AggregateInput());

  // Checkpoint under eps=0.1, resume under eps=0.2: the session header
  // must reject the mismatch and the run must start over, matching an
  // uninterrupted eps=0.2 run.
  const RunResult partial = RunCli(
      "--eps 0.1 --checkpoint " + checkpoint + " --stop-after 100",
      input_path);
  ASSERT_EQ(partial.exit_code, 0);
  const RunResult baseline = RunCli("--eps 0.2", input_path);
  ASSERT_EQ(baseline.exit_code, 0);
  const RunResult resumed =
      RunCli("--eps 0.2 --checkpoint " + checkpoint, input_path);
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.stdout_text, baseline.stdout_text);

  std::remove(input_path.c_str());
  std::remove(checkpoint.c_str());
}

TEST(CheckpointCliTest, BadFlagValuesRejected) {
  const std::string input_path = TempPath("badflag_in");
  WriteTextFile(input_path, "1\n");
  for (const char* args :
       {"--eps abc", "--eps 0.1x", "--universe -5", "--universe 1e3",
        "--seed 18446744073709551616", "--checkpoint-every 3.5",
        "--stop-after", "--mode sideways"}) {
    const RunResult result = RunCli(args, input_path);
    EXPECT_EQ(result.exit_code, 2) << args;
  }
  std::remove(input_path.c_str());
}

}  // namespace
