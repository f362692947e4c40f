// The session's durability owner, in-process: the auto-checkpoint
// cadence saves and rotates the WAL every N applied writes (quarantined
// and read-only lines do not count); a `save` rotates only when it
// lands on the cadence path; a torn cadence save is counted, leaves the
// log unrotated and still replayable to the live state. Everything is
// observed through `HandleLine`, the `stats`/`health` JSON and the WAL
// directory listing; every save runs inline on the session thread, so
// the counts are exact.
// docs/CHECKPOINTS.md states the contracts.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "io/wal.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wal_apply.h"

namespace himpact {
namespace {

// A scratch directory unique to this process (tests may run in
// parallel), created empty.
std::string TempDir(const std::string& name) {
  const std::string path = testing::TempDir() + "durability_" + name + "_" +
                           std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
  return path;
}

// The sorted file names in `dir`.
std::vector<std::string> Listing(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// The unsigned value of the first `"key":` in a stats/health reply.
std::uint64_t JsonU64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

std::map<AuthorId, double> AllEstimates(const HImpactService& service,
                                        AuthorId max_user) {
  std::map<AuthorId, double> estimates;
  for (AuthorId user = 1; user <= max_user; ++user) {
    UserSnapshot snapshot;
    if (service.Lookup(user, &snapshot)) estimates[user] = snapshot.estimate;
  }
  return estimates;
}

// One service, an optional WAL and a session over them.
struct Harness {
  explicit Harness(const ServiceOptions& service_options,
                   const SessionOptions& session_options,
                   const std::string& wal_dir = "")
      : service(HImpactService::Create(service_options).value()) {
    if (!wal_dir.empty()) {
      WalOptions wal_options;
      wal_options.dir = wal_dir;
      wal_options.fsync = WalFsync::kNever;
      wal_options.group_bytes = 1;  // every record reaches the file
      wal = WalWriter::Open(wal_options).value();
    }
    session = std::make_unique<ServiceSession>(&service, session_options);
    if (wal != nullptr) session->AttachWal(wal.get());
  }

  std::string Line(const std::string& line) {
    std::string reply;
    EXPECT_TRUE(session->HandleLine(line, &reply));
    return reply;
  }

  std::uint64_t Health(const std::string& key) {
    return JsonU64(Line("health"), key);
  }

  HImpactService service;
  std::unique_ptr<WalWriter> wal;
  std::unique_ptr<ServiceSession> session;
};

ServiceOptions SmallOptions() {
  ServiceOptions options;
  options.num_stripes = 2;
  options.promote_threshold = 8;
  return options;
}

// The i-th applied write of a deterministic mix of adds and papers.
std::string Write(int i) {
  if (i % 3 == 2) {
    return "paper " + std::to_string(i) + " " + std::to_string(5 + i % 11) +
           " " + std::to_string(1 + i % 7) + "," + std::to_string(9 + i % 5);
  }
  return "add " + std::to_string(1 + i % 13) + " " + std::to_string(1 + i % 17);
}

class DurabilityTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(DurabilityTest, CadenceSavesAndRotatesEveryNAppliedWrites) {
  const std::string dir = TempDir("cadence");
  const std::string wal_dir = dir + "/wal";
  std::filesystem::create_directories(wal_dir);
  SessionOptions session_options;
  session_options.checkpoint = dir + "/ck";
  session_options.checkpoint_every = 4;
  ServiceOptions service_options = SmallOptions();
  service_options.top_deadline_nanos = 1'000'000'000;
  Harness h(service_options, session_options, wal_dir);
  const std::uint64_t seq0 = h.Health("segment_seq");
  ASSERT_EQ(Listing(wal_dir).size(), 1u);

  std::uint64_t rejected = 0;
  for (int i = 1; i <= 12; ++i) {
    // Quarantined lines and reads never count toward the cadence.
    EXPECT_EQ(h.Line("zzjunk " + std::to_string(i)).rfind("ERR", 0), 0u);
    EXPECT_EQ(h.Line("add 3").rfind("ERR", 0), 0u);
    rejected += 2;
    h.Line("get " + std::to_string(i));
    h.Line("stats");
    const std::vector<std::string> before = Listing(wal_dir);
    if (i == 6) {
      // A skewed clock cannot fail a write: the deadline bounds only
      // `top`, so the write answers OK and counts once.
      FaultSpec skew;
      skew.skip = 1;
      skew.max_fires = 1;
      skew.param = 5'000'000'000ull;
      FaultRegistry::Global().Arm(FaultPoint::kClockSkew, skew);
      EXPECT_EQ(h.Line(Write(i)).rfind("OK", 0), 0u);
      FaultRegistry::Global().Reset();
    } else {
      EXPECT_EQ(h.Line(Write(i)).rfind("OK", 0), 0u);
    }
    const std::string health = h.Line("health");
    const std::uint64_t saves = static_cast<std::uint64_t>(i / 4);
    EXPECT_EQ(JsonU64(health, "checkpoints"), saves) << "after write " << i;
    EXPECT_EQ(JsonU64(health, "rotations"), saves) << "after write " << i;
    EXPECT_EQ(JsonU64(health, "segment_seq"), seq0 + saves);
    EXPECT_EQ(JsonU64(health, "rejected_lines"), rejected);
    const std::vector<std::string> after = Listing(wal_dir);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after != before, i % 4 == 0) << "after write " << i;
  }
  EXPECT_EQ(h.Health("checkpoint_failures"), 0u);
  EXPECT_EQ(h.Health("deadline_exceeded"), 0u);

  // The last cadence save covered every write.
  auto restored = HImpactService::Create(SmallOptions()).value();
  ASSERT_TRUE(restored.RestoreFrom(session_options.checkpoint).ok());
  EXPECT_EQ(restored.Stats().registry.total_events,
            h.service.Stats().registry.total_events);
  EXPECT_EQ(AllEstimates(restored, 16), AllEstimates(h.service, 16));
  h.session.reset();
  h.wal.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(DurabilityTest, SaveVerbRotatesOnlyAtTheCadencePath) {
  const std::string dir = TempDir("save_verb");
  const std::string wal_dir = dir + "/wal";
  std::filesystem::create_directories(wal_dir);
  SessionOptions session_options;
  session_options.checkpoint = dir + "/ck";
  session_options.checkpoint_every = 1000;
  Harness h(SmallOptions(), session_options, wal_dir);
  for (int i = 0; i < 5; ++i) h.Line(Write(i));
  const std::vector<std::string> before = Listing(wal_dir);
  const auto segment_size = [&] {
    return std::filesystem::file_size(wal_dir + "/" + Listing(wal_dir)[0]);
  };
  const std::uintmax_t logged = segment_size();
  ASSERT_GT(logged, 0u);

  // A side save does not cover the log: nothing rotates.
  const std::string side = dir + "/side";
  EXPECT_EQ(h.Line("save " + side), "OK saved " + side + "\n");
  EXPECT_EQ(h.Health("rotations"), 0u);
  EXPECT_EQ(Listing(wal_dir), before);
  EXPECT_EQ(segment_size(), logged);

  // A save to the cadence path does.
  EXPECT_EQ(h.Line("save " + session_options.checkpoint),
            "OK saved " + session_options.checkpoint + "\n");
  EXPECT_EQ(h.Health("rotations"), 1u);
  const std::vector<std::string> after = Listing(wal_dir);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after, before);
  EXPECT_EQ(segment_size(), 0u);
  EXPECT_EQ(h.Health("checkpoints"), 0u);  // the verb is not the cadence

  // A failed save rotates nothing.
  EXPECT_EQ(h.Line("save " + dir + "/missing/ck").rfind("ERR", 0), 0u);
  EXPECT_EQ(h.Health("rotations"), 1u);
  h.session.reset();
  h.wal.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(DurabilityTest, TornCadenceSaveKeepsTheLogAndTheNextSaveRotates) {
  const std::string dir = TempDir("torn");
  const std::string wal_dir = dir + "/wal";
  std::filesystem::create_directories(wal_dir);
  SessionOptions session_options;
  session_options.checkpoint = dir + "/ck";
  session_options.checkpoint_every = 5;
  Harness h(SmallOptions(), session_options, wal_dir);
  for (int i = 0; i < 5; ++i) h.Line(Write(i));
  ASSERT_EQ(h.Health("checkpoints"), 1u);
  ASSERT_EQ(h.Health("rotations"), 1u);

  // Every checkpoint write tears (through every retry): the next
  // cadence save fails, is counted, and must not rotate the log.
  FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, FaultSpec{});
  for (int i = 5; i < 10; ++i) h.Line(Write(i));
  FaultRegistry::Global().Reset();
  EXPECT_EQ(h.Health("checkpoint_failures"), 1u);
  EXPECT_EQ(h.Health("checkpoints"), 1u);
  EXPECT_EQ(h.Health("rotations"), 1u);

  // The last good checkpoint plus the surviving log replays to the
  // live state.
  const std::uint64_t live_events = JsonU64(h.Line("stats"), "events");
  auto replayed = HImpactService::Create(SmallOptions()).value();
  ASSERT_TRUE(replayed.RestoreFrom(session_options.checkpoint).ok());
  EXPECT_LT(replayed.Stats().registry.total_events, live_events);
  WalReplayStats read_stats;
  WalApplyStats apply_stats;
  ASSERT_TRUE(ReplayWal(wal_dir, &replayed, &read_stats, &apply_stats).ok());
  EXPECT_EQ(read_stats.records, 5u);
  EXPECT_EQ(replayed.Stats().registry.total_events, live_events);
  EXPECT_EQ(AllEstimates(replayed, 16), AllEstimates(h.service, 16));

  // The next cadence save lands and rotates.
  for (int i = 10; i < 15; ++i) h.Line(Write(i));
  EXPECT_EQ(h.Health("checkpoints"), 2u);
  EXPECT_EQ(h.Health("rotations"), 2u);
  EXPECT_EQ(h.Health("checkpoint_failures"), 1u);
  h.session.reset();
  h.wal.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(DurabilityTest, UnarmedSessionNeverSaves) {
  const std::string dir = TempDir("unarmed");
  const std::string wal_dir = dir + "/wal";
  std::filesystem::create_directories(wal_dir);
  Harness h(SmallOptions(), SessionOptions{}, wal_dir);
  for (int i = 0; i < 20; ++i) h.Line(Write(i));
  ASSERT_TRUE(h.session->FinalCheckpoint().ok());
  const std::string health = h.Line("health");
  EXPECT_EQ(JsonU64(health, "checkpoints"), 0u);
  EXPECT_EQ(JsonU64(health, "rotations"), 0u);
  EXPECT_EQ(JsonU64(health, "records"), 20u);
  EXPECT_EQ(Listing(dir), std::vector<std::string>{"wal"});
  h.session.reset();
  h.wal.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace himpact
