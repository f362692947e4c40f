// The golden transcript: byte identity as a test. One seeded request
// stream (add/paper/get/top/heavy/stats/health/save plus junk lines)
// drives an in-process ServiceSession through three configurations:
//
//   A  4 stripes, cadence saves, WAL `never` with a long group window;
//   B  A with a small budget and a segment directory, so users page;
//   C  B's budget with no segment directory, so users freeze.
//
// Each run is reduced to digests of its replies (one per window of
// kWindow replies) and of the checkpoint, WAL and segment files it
// leaves, and those must equal the committed constants. Only the
// health keys in kMaskedHealthKeys are masked: they depend on timing,
// on the host or on how the requests were batched, not on the requests.
//
// The stream goes through `ServiceSession::HandleBatch` in batches of 1,
// 7 and 64 requests (a batch never spans a window), and every batching
// must reproduce the same digests: runs of writes applied as one batch
// answer and persist exactly as one request at a time.
//
// A change that alters bytes on purpose replaces the constants (a
// failure prints the new ones) and says why in CHANGES.md. To see what
// moved, run tools/transcript_diff.sh <rev>: it runs this test with
// HIMPACT_GOLDEN_DUMP=<dir> on both revisions and diffs the two dump
// directories, each holding `<config>.txt` (every request and its reply)
// and `<config>/` (the files the run left).

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "io/wal.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/service.h"
#include "service/session.h"

namespace himpact {
namespace {

namespace fs = std::filesystem;

constexpr int kRequests = 4000;
constexpr std::size_t kWindow = 1000;
constexpr AuthorId kUsers = 600;

// The health keys whose values depend on timing or batching (WAL group
// flushes: one per batch) or on the host (task runtime workers); their
// digits are masked.
const char* const kMaskedHealthKeys[] = {"flushes", "fsyncs", "workers"};

// What one configuration must reproduce.
struct Golden {
  std::vector<std::uint64_t> reply_windows;
  std::uint64_t checkpoint_files = 0;
  std::uint64_t wal_files = 0;
  std::uint64_t segment_files = 0;
};

struct Config {
  const char* name;
  std::uint64_t budget_bytes;
  bool paged;
  Golden golden;
};

// gtest prints a failing parameter by its name.
void PrintTo(const Config& config, std::ostream* out) { *out << config.name; }

constexpr std::uint64_t kSmallBudget = 96u << 10;

const Config kConfigs[] = {
    {"A", 64ull << 20, false,
     {{0x6a5cb9c1d57d513fULL, 0x4915c82a4f738328ULL, 0x9465d01e2c243753ULL,
       0xc62fd207c2e599e5ULL, 0xf49fd388b3ea2014ULL},
      0x37389527e59f6328ULL, 0x2be38fc8370a19d7ULL, 0xcbf29ce484222325ULL}},
    {"B", kSmallBudget, true,
     {{0x1b3786bb8a7e856dULL, 0x694540be13b558bdULL, 0x4de949a23f6196b7ULL,
       0x2e7f6d91459d035fULL, 0x34e13d4ec37480e7ULL},
      0xbe4edfd499784545ULL, 0x2be38fc8370a19d7ULL, 0x781505993f145618ULL}},
    {"C", kSmallBudget, false,
     {{0x1b3786bb8a7e856dULL, 0xe8e3399093d65677ULL, 0x077065c627db563bULL,
       0x7d6dad16ff21e83fULL, 0x836f3b723c2a6a6bULL},
      0xfb181aa8860db5c1ULL, 0x2be38fc8370a19d7ULL, 0xcbf29ce484222325ULL}},
};

std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

// Masks every occurrence: a batch's replies may hold several `health`s.
std::string MaskHealth(std::string reply) {
  for (const char* key : kMaskedHealthKeys) {
    const std::string needle = std::string("\"") + key + "\":";
    for (std::size_t at = reply.find(needle); at != std::string::npos;
         at = reply.find(needle, at + needle.size())) {
      const std::size_t begin = at + needle.size();
      std::size_t end = begin;
      while (end < reply.size() &&
             std::isdigit(static_cast<unsigned char>(reply[end]))) {
        ++end;
      }
      reply.replace(begin, end - begin, "_");
    }
  }
  return reply;
}

// The seeded request stream; `$DIR` stands for the run's directory.
std::vector<std::string> Requests() {
  Rng rng(2017);
  ZipfSampler users(kUsers, 1.05);
  DiscreteParetoSampler values(1, 1.5, 1000);
  std::vector<std::string> lines;
  std::uint64_t paper = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t roll = rng.UniformU64(1000);
    if (roll < 450) {
      lines.push_back("add " + std::to_string(users.Sample(rng)) + " " +
                      std::to_string(values.Sample(rng)));
    } else if (roll < 650) {
      std::vector<AuthorId> authors;
      const std::uint64_t count = 1 + rng.UniformU64(3);
      while (authors.size() < count) {
        const AuthorId author = users.Sample(rng);
        bool seen = false;
        for (const AuthorId a : authors) seen = seen || a == author;
        if (!seen) authors.push_back(author);
      }
      std::string line = "paper " + std::to_string(++paper) + " " +
                         std::to_string(values.Sample(rng)) + " ";
      for (std::size_t a = 0; a < authors.size(); ++a) {
        line += (a > 0 ? "," : "") + std::to_string(authors[a]);
      }
      lines.push_back(line);
    } else if (roll < 900) {
      // Mostly seen users, sometimes one never seen.
      lines.push_back("get " + std::to_string(roll < 880
                                                  ? users.Sample(rng)
                                                  : kUsers + roll));
    } else if (roll < 930) {
      lines.push_back("top " + std::to_string(1 + rng.UniformU64(10)));
    } else if (roll < 950) {
      lines.push_back("heavy");
    } else if (roll < 970) {
      lines.push_back("stats");
    } else if (roll < 990) {
      lines.push_back("health");
    } else if (roll < 996) {
      lines.push_back("save $DIR/manual");
    } else {
      lines.push_back("zzjunk " + std::to_string(i));
    }
  }
  lines.push_back("stats");
  lines.push_back("health");
  return lines;
}

struct Outcome {
  std::vector<std::string> transcript;  // a batch's requests, then replies
  Golden digests;
  RegistryStats registry;
};

// Runs the stream through one configuration in a fresh directory `dir`,
// `chunk` requests per batch.
Outcome RunConfig(const Config& config, const std::string& dir,
                  std::size_t chunk) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir + "/wal");
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 16;
  options.memory_budget_bytes = config.budget_bytes;
  if (config.paged) options.segment_dir = dir + "/seg";
  SessionOptions session_options;
  session_options.checkpoint = dir + "/ck";
  session_options.checkpoint_every = 500;
  WalOptions wal_options;
  wal_options.dir = dir + "/wal";
  wal_options.fsync = WalFsync::kNever;
  wal_options.group_ms = 3600 * 1000;  // flushes come from bytes only

  Outcome outcome;
  {
    HImpactService service = HImpactService::Create(options).value();
    std::unique_ptr<WalWriter> wal = WalWriter::Open(wal_options).value();
    ServiceSession session(&service, session_options);
    session.AttachWal(wal.get());
    const std::vector<std::string> requests = Requests();
    std::uint64_t window = Fnv1a("");
    for (std::size_t begin = 0; begin < requests.size();) {
      // A window's digest is the FNV-1a of its replies back to back, so
      // a batch that ends at the window's end keeps the digests apart.
      const std::size_t end = std::min(
          {begin + chunk, requests.size(), (begin / kWindow + 1) * kWindow});
      std::vector<std::string> lines;
      std::string header;
      for (std::size_t i = begin; i < end; ++i) {
        lines.push_back(ReplaceAll(requests[i], "$DIR", dir));
        header += "> " + requests[i] + "\n";
      }
      const std::vector<std::string_view> batch(lines.begin(), lines.end());
      std::string replies;
      const BatchResult result = session.HandleBatch(
          /*binary=*/false, batch, replies.max_size(), &replies);
      EXPECT_EQ(result.handled, batch.size());
      EXPECT_TRUE(result.keep);
      replies = MaskHealth(ReplaceAll(replies, dir, "$DIR"));
      outcome.transcript.push_back(header + replies);
      window = Fnv1a(replies, window);
      if (end % kWindow == 0) {
        outcome.digests.reply_windows.push_back(window);
        window = Fnv1a("");
      }
      begin = end;
    }
    outcome.digests.reply_windows.push_back(window);
    outcome.registry = service.Stats().registry;
  }  // the WAL writer flushes its last group on close

  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  outcome.digests.checkpoint_files = Fnv1a("");
  outcome.digests.wal_files = Fnv1a("");
  outcome.digests.segment_files = Fnv1a("");
  for (const std::string& file : files) {
    std::ifstream in(dir + "/" + file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::uint64_t* digest = file.rfind("wal/", 0) == 0
                                ? &outcome.digests.wal_files
                                : file.rfind("seg/", 0) == 0
                                      ? &outcome.digests.segment_files
                                      : &outcome.digests.checkpoint_files;
    *digest = Fnv1a(bytes.str(), Fnv1a(file + '\0', *digest));
  }

  const char* dump = std::getenv("HIMPACT_GOLDEN_DUMP");
  if (dump != nullptr && chunk == 1) {
    fs::create_directories(dump);
    std::ofstream out(std::string(dump) + "/" + config.name + ".txt");
    for (const std::string& line : outcome.transcript) out << line;
    fs::remove_all(std::string(dump) + "/" + config.name, ec);
    fs::copy(dir, std::string(dump) + "/" + config.name,
             fs::copy_options::recursive);
  }
  fs::remove_all(dir, ec);
  return outcome;
}

std::string Hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxULL",
                static_cast<unsigned long long>(value));
  return buffer;
}

// The constants block to paste into kConfigs for `digests`.
std::string Constants(const Golden& digests) {
  std::string text = "{{";
  for (std::size_t w = 0; w < digests.reply_windows.size(); ++w) {
    text += (w > 0 ? ", " : "") + Hex(digests.reply_windows[w]);
  }
  return text + "}, " + Hex(digests.checkpoint_files) + ", " +
         Hex(digests.wal_files) + ", " + Hex(digests.segment_files) + "}";
}

// Compares one run of `config` with its committed digests.
void CheckRun(const Config& config, const Outcome& outcome) {
  // Each configuration exercises the tier it is named for.
  if (config.budget_bytes == kSmallBudget) {
    EXPECT_GT(outcome.registry.demotions, 0u);
    EXPECT_GT(config.paged ? outcome.registry.segment_users
                           : outcome.registry.frozen_users,
              0u);
  }

  const Golden& want = config.golden;
  const Golden& got = outcome.digests;
  ASSERT_EQ(got.reply_windows.size(), want.reply_windows.size());
  for (std::size_t w = 0; w < got.reply_windows.size(); ++w) {
    EXPECT_EQ(got.reply_windows[w], want.reply_windows[w])
        << "config " << config.name << ": the first differing reply is in "
        << "[" << w * kWindow << ", " << (w + 1) * kWindow << ")";
    if (got.reply_windows[w] != want.reply_windows[w]) break;
  }
  EXPECT_EQ(got.checkpoint_files, want.checkpoint_files)
      << "config " << config.name << ": checkpoint files differ";
  EXPECT_EQ(got.wal_files, want.wal_files)
      << "config " << config.name << ": WAL files differ";
  EXPECT_EQ(got.segment_files, want.segment_files)
      << "config " << config.name << ": segment files differ";
  if (testing::Test::HasFailure()) {
    ADD_FAILURE() << "config " << config.name
                  << " digests: " << Constants(got);
  }
}

class GoldenTranscriptTest : public testing::TestWithParam<Config> {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
};

TEST_P(GoldenTranscriptTest, RepliesAndFilesMatchTheCommittedDigests) {
  const Config& config = GetParam();
  const std::string dir = testing::TempDir() + "golden_" + config.name +
                          "_" + std::to_string(static_cast<long>(::getpid()));
  for (const std::size_t chunk : {1, 7, 64}) {
    SCOPED_TRACE("batches of " + std::to_string(chunk));
    CheckRun(config, RunConfig(config, dir, chunk));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenTranscriptTest,
                         testing::ValuesIn(kConfigs),
                         [](const testing::TestParamInfo<Config>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace himpact
