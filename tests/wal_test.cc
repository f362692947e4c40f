// Write-ahead log suite (src/io/wal.*, src/service/wal_apply.*,
// docs/CHECKPOINTS.md): the framed segment format round-trips; group
// commit flushes by watermark; rotation empties the directory; a torn
// tail — every 1-byte truncation point, every single-bit flip, garbage
// tails, a corrupt mid-chain segment — is repaired, never fatal, and
// never replays a corrupt or out-of-order record; the injected WAL
// faults degrade the writer to checkpoint-only durability without
// losing what was already durable; and checkpoint + WAL replay
// recovers a service byte-identical to an uncrashed twin, and the
// parallel per-stripe replay is byte-identical to a serial one.

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/envelope.h"
#include "fault/fault.h"
#include "io/wal.h"
#include "random/rng.h"
#include "service/service.h"
#include "service/wal_apply.h"
#include "stream/types.h"

namespace {

using namespace himpact;

std::string TempPath(const char* name) {
  return testing::TempDir() + "wal_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A deterministic payload for record `i`, sized unevenly so frame
// boundaries land at irregular offsets.
std::vector<std::uint8_t> Payload(int i) {
  std::vector<std::uint8_t> payload(3 + static_cast<std::size_t>(i) * 5);
  for (std::size_t b = 0; b < payload.size(); ++b) {
    payload[b] = static_cast<std::uint8_t>(0x11 * (i + 1) + b);
  }
  return payload;
}

class WalTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- fsync policy flag surface -----------------------------------------------

TEST_F(WalTest, FsyncPolicyParsesAndNamesRoundTrip) {
  WalFsync policy = WalFsync::kGroup;
  EXPECT_TRUE(ParseWalFsyncText("always", &policy));
  EXPECT_EQ(policy, WalFsync::kAlways);
  EXPECT_TRUE(ParseWalFsyncText("group", &policy));
  EXPECT_EQ(policy, WalFsync::kGroup);
  EXPECT_TRUE(ParseWalFsyncText("never", &policy));
  EXPECT_EQ(policy, WalFsync::kNever);
  EXPECT_FALSE(ParseWalFsyncText("sometimes", &policy));
  EXPECT_FALSE(ParseWalFsyncText("", &policy));
  for (const WalFsync p :
       {WalFsync::kAlways, WalFsync::kGroup, WalFsync::kNever}) {
    WalFsync parsed = WalFsync::kAlways;
    ASSERT_TRUE(ParseWalFsyncText(WalFsyncName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
}

// --- append / read round trips -----------------------------------------------

TEST_F(WalTest, AppendedRecordsReadBackInOrder) {
  const std::string dir = TempPath("roundtrip");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kAlways;
  {
    auto writer = WalWriter::Open(options).value();
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer->Append(Payload(i)).ok());
    }
    EXPECT_EQ(writer->counters().records, 6u);
    EXPECT_EQ(writer->counters().fsyncs, 6u);  // one per record: always
    EXPECT_FALSE(writer->degraded());
  }
  WalReplayStats stats;
  auto records = ReadWalRecords(dir, &stats).value();
  ASSERT_EQ(records.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], Payload(i));
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 6u);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.dropped_segments, 0u);
  RemoveTree(dir);
}

TEST_F(WalTest, GroupCommitFlushesOnByteWatermarkAndOnClose) {
  const std::string dir = TempPath("group");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kGroup;
  options.group_bytes = 64;       // a couple of framed records
  options.group_ms = 60 * 1000;   // age watermark out of the picture
  std::uint64_t mid_flushes = 0;
  {
    auto writer = WalWriter::Open(options).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer->Append(Payload(i)).ok());
    }
    mid_flushes = writer->counters().flushes;
    // The byte watermark must have tripped at least once mid-stream,
    // and grouping means strictly fewer flushes than records.
    EXPECT_GE(mid_flushes, 1u);
    EXPECT_LT(mid_flushes, 10u);
  }
  // Destruction writes out the open group: nothing is lost on a clean
  // close even though the last records never tripped the watermark.
  auto records = ReadWalRecords(dir, nullptr).value();
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], Payload(i));
  RemoveTree(dir);
}

TEST_F(WalTest, NeverPolicyIsDurableAfterCleanClose) {
  const std::string dir = TempPath("never");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kNever;
  options.group_bytes = 1;  // flush every record, fsync still withheld
  {
    auto writer = WalWriter::Open(options).value();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer->Append(Payload(i)).ok());
    }
    EXPECT_EQ(writer->counters().fsyncs, 0u);  // never mid-stream
  }
  EXPECT_EQ(ReadWalRecords(dir, nullptr).value().size(), 4u);
  RemoveTree(dir);
}

TEST_F(WalTest, RotationDeletesEverySegmentAndStartsFresh) {
  const std::string dir = TempPath("rotate");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kAlways;
  auto writer = WalWriter::Open(options).value();
  const std::uint64_t first_seq = writer->segment_seq();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());
  ASSERT_TRUE(writer->Rotate().ok());
  EXPECT_EQ(writer->segment_seq(), first_seq + 1);
  EXPECT_EQ(writer->counters().rotations, 1u);
  // The checkpoint that triggered the rotation covers the old records:
  // recovery must now see an empty log, not a stale one.
  EXPECT_TRUE(ReadWalRecords(dir, nullptr).value().empty());
  ASSERT_TRUE(writer->Append(Payload(7)).ok());
  auto records = ReadWalRecords(dir, nullptr).value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], Payload(7));
  writer.reset();
  RemoveTree(dir);
}

TEST_F(WalTest, ReopenNeverTouchesExistingSegments) {
  const std::string dir = TempPath("reopen");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kAlways;
  std::uint64_t first_seq = 0;
  {
    auto writer = WalWriter::Open(options).value();
    first_seq = writer->segment_seq();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());
  }
  {
    auto writer = WalWriter::Open(options).value();
    EXPECT_EQ(writer->segment_seq(), first_seq + 1);
    for (int i = 3; i < 5; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());
  }
  // Both generations replay, oldest segment first.
  WalReplayStats stats;
  auto records = ReadWalRecords(dir, &stats).value();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], Payload(i));
  EXPECT_EQ(stats.segments, 2u);
  RemoveTree(dir);
}

TEST_F(WalTest, MissingAndEmptyDirectoriesReplayAsEmpty) {
  const std::string dir = TempPath("missing");
  RemoveTree(dir);
  WalReplayStats stats;
  EXPECT_TRUE(ReadWalRecords(dir, &stats).value().empty());
  EXPECT_EQ(stats.segments, 0u);
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(ReadWalRecords(dir, &stats).value().empty());
  RemoveTree(dir);
}

// --- torn-tail corpus --------------------------------------------------------

// Builds one pristine segment of `n` records and returns its bytes,
// segment path, and per-frame end offsets.
struct PristineSegment {
  std::string dir;
  std::string path;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> frame_ends;  // frame_ends[k] = end of record k
};

PristineSegment BuildPristine(const char* name, int n) {
  PristineSegment segment;
  segment.dir = TempPath(name);
  RemoveTree(segment.dir);
  WalOptions options;
  options.dir = segment.dir;
  options.fsync = WalFsync::kAlways;
  std::uint64_t seq = 0;
  {
    auto writer = WalWriter::Open(options).value();
    seq = writer->segment_seq();
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(writer->Append(Payload(i)).ok());
    }
  }
  segment.path =
      segment.dir + "/wal-" + std::to_string(seq) + ".log";
  segment.bytes = ReadAll(segment.path);
  std::size_t pos = 0;
  for (int i = 0; i < n; ++i) {
    pos += kEnvelopeHeaderBytes + Payload(i).size();
    segment.frame_ends.push_back(pos);
  }
  EXPECT_EQ(pos, segment.bytes.size());
  return segment;
}

TEST_F(WalTest, EveryTruncationPointRepairsToTheFramePrefix) {
  const PristineSegment pristine = BuildPristine("trunc", 5);
  for (std::size_t cut = 0; cut < pristine.bytes.size(); ++cut) {
    WriteAllBytes(pristine.path,
                  std::vector<std::uint8_t>(pristine.bytes.begin(),
                                            pristine.bytes.begin() +
                                                static_cast<std::ptrdiff_t>(cut)));
    // Expected survivors: every record whose frame ends at or before
    // the cut. A cut exactly on a frame boundary is not a tear at all.
    std::size_t expect = 0;
    while (expect < pristine.frame_ends.size() &&
           pristine.frame_ends[expect] <= cut) {
      ++expect;
    }
    const bool boundary =
        cut == 0 || (expect > 0 && pristine.frame_ends[expect - 1] == cut);
    WalReplayStats stats;
    auto records = ReadWalRecords(pristine.dir, &stats).value();
    ASSERT_EQ(records.size(), expect) << "cut at byte " << cut;
    for (std::size_t k = 0; k < expect; ++k) {
      EXPECT_EQ(records[k], Payload(static_cast<int>(k)));
    }
    EXPECT_EQ(stats.torn_tails, boundary ? 0u : 1u) << "cut at byte " << cut;
    // Repair is idempotent: the second recovery sees a clean log with
    // the identical prefix.
    WalReplayStats again;
    auto repaired = ReadWalRecords(pristine.dir, &again).value();
    EXPECT_EQ(repaired.size(), expect) << "cut at byte " << cut;
    EXPECT_EQ(again.torn_tails, 0u) << "cut at byte " << cut;
  }
  RemoveTree(pristine.dir);
}

TEST_F(WalTest, EveryBitFlipIsContainedAndNeverReplaysCorruptData) {
  const PristineSegment pristine = BuildPristine("flip", 5);
  for (std::size_t byte = 0; byte < pristine.bytes.size(); ++byte) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      std::vector<std::uint8_t> mutated = pristine.bytes;
      mutated[byte] ^= mask;
      WriteAllBytes(pristine.path, mutated);
      auto records_or = ReadWalRecords(pristine.dir, nullptr);
      ASSERT_TRUE(records_or.ok()) << "flip at byte " << byte;
      const auto& records = records_or.value();
      // The flip lives in exactly one frame; everything before it must
      // survive byte-identical and nothing from it onward may replay.
      std::size_t frame = 0;
      while (pristine.frame_ends[frame] <= byte) ++frame;
      ASSERT_LE(records.size(), frame) << "flip at byte " << byte;
      for (std::size_t k = 0; k < records.size(); ++k) {
        EXPECT_EQ(records[k], Payload(static_cast<int>(k)))
            << "corrupt or reordered record after flip at byte " << byte;
      }
      // Restore the pristine file for the next mutation (repair may
      // have truncated it).
      WriteAllBytes(pristine.path, pristine.bytes);
    }
  }
  RemoveTree(pristine.dir);
}

TEST_F(WalTest, GarbageTailIsCutAndRecoveryIsClean) {
  const PristineSegment pristine = BuildPristine("garbage", 4);
  std::vector<std::uint8_t> mutated = pristine.bytes;
  for (int i = 0; i < 37; ++i) {
    mutated.push_back(static_cast<std::uint8_t>(0xA5 ^ (i * 7)));
  }
  WriteAllBytes(pristine.path, mutated);
  WalReplayStats stats;
  auto records = ReadWalRecords(pristine.dir, &stats).value();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.discarded_bytes, 37u);
  // The file itself was repaired back to the valid prefix.
  EXPECT_EQ(ReadAll(pristine.path).size(), pristine.bytes.size());
  RemoveTree(pristine.dir);
}

TEST_F(WalTest, CorruptMidChainSegmentDropsEveryLaterSegment) {
  const std::string dir = TempPath("midchain");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kAlways;
  std::uint64_t seq1 = 0;
  {
    auto writer = WalWriter::Open(options).value();
    seq1 = writer->segment_seq();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());
  }
  {
    auto writer = WalWriter::Open(options).value();
    for (int i = 3; i < 5; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());
  }
  // Tear the *first* segment one byte short: its last record dies, and
  // the second segment — whose records came after the lost one — must
  // be dropped, not replayed as a gapped suffix.
  const std::string first = dir + "/wal-" + std::to_string(seq1) + ".log";
  std::vector<std::uint8_t> bytes = ReadAll(first);
  bytes.pop_back();
  WriteAllBytes(first, bytes);
  WalReplayStats stats;
  auto records = ReadWalRecords(dir, &stats).value();
  ASSERT_EQ(records.size(), 2u);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], Payload(i));
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.dropped_segments, 1u);
  EXPECT_GT(stats.discarded_bytes, 0u);
  // The dropped segment is gone from disk; recovery is idempotent.
  WalReplayStats again;
  EXPECT_EQ(ReadWalRecords(dir, &again).value().size(), 2u);
  EXPECT_EQ(again.dropped_segments, 0u);
  EXPECT_EQ(again.torn_tails, 0u);
  RemoveTree(dir);
}

// In-place framing writes exactly the `SealEnvelope` bytes, under every
// fsync policy and for every payload size from 0 to 300 bytes.
TEST_F(WalTest, InPlaceFramingEqualsSealEnvelope) {
  for (const WalFsync policy :
       {WalFsync::kAlways, WalFsync::kGroup, WalFsync::kNever}) {
    const std::string dir =
        TempPath((std::string("framing_") + WalFsyncName(policy)).c_str());
    RemoveTree(dir);
    WalOptions options;
    options.dir = dir;
    options.fsync = policy;
    options.group_bytes = 4096;  // several group flushes, not one
    std::vector<std::uint8_t> expected;
    std::string segment;
    {
      auto writer = WalWriter::Open(options).value();
      segment = dir + "/wal-" + std::to_string(writer->segment_seq()) + ".log";
      for (std::size_t size = 0; size <= 300; ++size) {
        std::vector<std::uint8_t> payload(size);
        for (std::size_t b = 0; b < size; ++b) {
          payload[b] = static_cast<std::uint8_t>(size * 31 + b * 7);
        }
        ASSERT_TRUE(writer->Append(payload).ok());
        const std::vector<std::uint8_t> sealed =
            SealEnvelope(CheckpointTag::kWalRecord, payload);
        expected.insert(expected.end(), sealed.begin(), sealed.end());
      }
      EXPECT_EQ(writer->counters().bytes, expected.size());
    }
    EXPECT_EQ(ReadAll(segment), expected) << WalFsyncName(policy);
    RemoveTree(dir);
  }
}

// The session logs the stripe sequences the apply reported; the
// read-back wrappers derive them from the stripe counts afterwards. On
// a single ingest thread both write the same log, byte for byte, for
// adds and for papers whose co-authors share stripes or repeat.
TEST_F(WalTest, PerEventSequencesWriteTheReadBackLog) {
  ServiceOptions options;
  options.num_stripes = 3;
  options.promote_threshold = 8;
  options.memory_budget_bytes = 64 * 1024;
  auto read_back = HImpactService::Create(options).value();
  auto per_event = HImpactService::Create(options).value();
  const std::string root = TempPath("per_event");
  RemoveTree(root);
  std::filesystem::create_directories(root);
  WalOptions options_a;
  options_a.dir = root + "/read_back";
  options_a.fsync = WalFsync::kNever;
  WalOptions options_b = options_a;
  options_b.dir = root + "/per_event";
  std::string path_a, path_b;
  {
    auto wal_a = WalWriter::Open(options_a).value();
    auto wal_b = WalWriter::Open(options_b).value();
    path_a = options_a.dir + "/wal-" + std::to_string(wal_a->segment_seq()) +
             ".log";
    path_b = options_b.dir + "/wal-" + std::to_string(wal_b->segment_seq()) +
             ".log";
    Rng rng(71);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t value = 1 + rng.UniformU64(60);
      if (rng.Bernoulli(0.3)) {
        const AuthorId user = 1 + rng.UniformU64(50);
        read_back.RecordResponseCount(user, value);
        ASSERT_TRUE(AppendWalAdd(wal_a.get(), read_back, user, value).ok());
        std::uint64_t seq = 0;
        per_event.RecordResponseCount(user, value, &seq);
        ASSERT_TRUE(AppendWalAdd(wal_b.get(), user, value, seq).ok());
        continue;
      }
      PaperTuple paper;
      paper.paper = static_cast<PaperId>(i + 1);
      paper.citations = value;
      const int n = 1 + static_cast<int>(rng.UniformU64(kMaxAuthorsPerPaper));
      for (int a = 0; a < n; ++a) {
        paper.authors.PushBack(1 + rng.UniformU64(50));
      }
      read_back.IngestPaper(paper);
      ASSERT_TRUE(AppendWalPaper(wal_a.get(), read_back, paper).ok());
      std::array<std::uint64_t, kMaxAuthorsPerPaper> seqs{};
      per_event.ApplyPaper(paper, ~std::uint32_t{0}, true, seqs.data());
      ASSERT_TRUE(AppendWalPaper(wal_b.get(), paper, seqs).ok());
    }
  }
  const std::vector<std::uint8_t> log = ReadAll(path_a);
  EXPECT_GT(log.size(), 100000u);
  EXPECT_EQ(log, ReadAll(path_b));
  RemoveTree(root);
}

// --- injected faults ---------------------------------------------------------

TEST_F(WalTest, AppendFailFaultDegradesButKeepsDurableRecords) {
  const std::string dir = TempPath("fault_append");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kGroup;
  options.group_bytes = 1;  // flush each record before the fault lands
  auto writer = WalWriter::Open(options).value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());

  FaultRegistry::Global().Arm(FaultPoint::kWalAppendFail, FaultSpec{});
  const Status failed = writer->Append(Payload(3));
  EXPECT_FALSE(failed.ok());       // the failure is loud exactly once
  EXPECT_TRUE(writer->degraded());
  // After degrading, appends are quiet counted no-ops: the service
  // keeps running on checkpoint-only durability.
  EXPECT_TRUE(writer->Append(Payload(4)).ok());
  EXPECT_EQ(writer->counters().append_failures, 2u);
  EXPECT_EQ(writer->counters().records, 3u);
  FaultRegistry::Global().Reset();

  // Rotation on a degraded writer still reclaims space but stays
  // degraded (the log is gone until restart).
  ASSERT_TRUE(writer->Rotate().ok());
  EXPECT_TRUE(writer->degraded());
  EXPECT_TRUE(writer->Append(Payload(5)).ok());
  EXPECT_EQ(writer->counters().records, 3u);
  writer.reset();
  EXPECT_TRUE(ReadWalRecords(dir, nullptr).value().empty());
  RemoveTree(dir);
}

TEST_F(WalTest, TornTailFaultLeavesARepairableHalfRecord) {
  const std::string dir = TempPath("fault_torn");
  RemoveTree(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync = WalFsync::kAlways;
  auto writer = WalWriter::Open(options).value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer->Append(Payload(i)).ok());

  FaultRegistry::Global().Arm(FaultPoint::kWalTornTail, FaultSpec{});
  EXPECT_FALSE(writer->Append(Payload(3)).ok());
  EXPECT_TRUE(writer->degraded());
  FaultRegistry::Global().Reset();
  writer.reset();

  // The half-written frame is on disk — exactly the power-cut shape —
  // and recovery repairs around it: all three durable records replay,
  // the tear is truncated away, nothing corrupt surfaces.
  WalReplayStats stats;
  auto records = ReadWalRecords(dir, &stats).value();
  ASSERT_EQ(records.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], Payload(i));
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_GT(stats.discarded_bytes, 0u);
  RemoveTree(dir);
}

// --- service-level encoding, gating, replay ----------------------------------

ServiceOptions TwoStripeOptions() {
  ServiceOptions options;
  options.num_stripes = 2;
  options.promote_threshold = 8;
  options.enable_heavy_hitters = false;
  return options;
}

// The mixed deterministic workload both twins consume: adds and papers
// with 1-3 authors, co-authors frequently sharing a stripe.
void ApplyEvent(HImpactService* service, WalWriter* wal, int i) {
  if (i % 3 != 0) {
    const AuthorId user = static_cast<AuthorId>(1 + i % 10);
    const std::uint64_t value = static_cast<std::uint64_t>(1 + (i * 7) % 40);
    service->RecordResponseCount(user, value);
    // The append may loudly fail once when a WAL fault is armed (the
    // degrade-to-checkpoint-only contract); the tests assert what made
    // it to disk via the replay stats instead.
    if (wal != nullptr) (void)AppendWalAdd(wal, *service, user, value);
    return;
  }
  PaperTuple paper;
  paper.paper = static_cast<PaperId>(1000 + i);
  paper.citations = static_cast<std::uint64_t>(1 + (i * 5) % 30);
  paper.authors.PushBack(static_cast<AuthorId>(1 + i % 10));
  if (i % 2 == 0) paper.authors.PushBack(static_cast<AuthorId>(1 + (i + 3) % 10));
  if (i % 6 == 0) paper.authors.PushBack(static_cast<AuthorId>(1 + i % 10));
  service->IngestPaper(paper);
  if (wal != nullptr) (void)AppendWalPaper(wal, *service, paper);
}

TEST_F(WalTest, CheckpointPlusReplayMatchesUncrashedTwinExactly) {
  const std::string root = TempPath("twin");
  RemoveTree(root);
  std::filesystem::create_directories(root);
  const std::string wal_dir = root + "/wal";
  const std::string checkpoint = root + "/ckpt";
  constexpr int kEvents = 150;
  constexpr int kCheckpointAt = 60;

  WalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.fsync = WalFsync::kAlways;

  // The "crashed" run: WAL every event, checkpoint partway, then stop
  // without a final save or rotation — what SIGKILL leaves behind.
  auto crashed = HImpactService::Create(TwoStripeOptions()).value();
  {
    auto wal = WalWriter::Open(wal_options).value();
    for (int i = 0; i < kEvents; ++i) {
      ApplyEvent(&crashed, wal.get(), i);
      if (i + 1 == kCheckpointAt) {
        ASSERT_TRUE(crashed.CheckpointTo(checkpoint).ok());
      }
    }
  }

  // Recovery: restore the checkpoint, replay the log through the gate.
  auto recovered = HImpactService::Create(TwoStripeOptions()).value();
  ASSERT_TRUE(recovered.RestoreFrom(checkpoint).ok());
  WalReplayStats read_stats;
  WalApplyStats apply_stats;
  ASSERT_TRUE(
      ReplayWal(wal_dir, &recovered, &read_stats, &apply_stats).ok());
  // Every record is on disk (fsync always); the checkpoint covers the
  // first kCheckpointAt and the gate must skip exactly those.
  EXPECT_EQ(read_stats.records, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(apply_stats.skipped_records,
            static_cast<std::uint64_t>(kCheckpointAt));
  EXPECT_EQ(apply_stats.applied_adds + apply_stats.applied_papers +
                apply_stats.partial_papers,
            static_cast<std::uint64_t>(kEvents - kCheckpointAt));
  EXPECT_EQ(apply_stats.partial_papers, 0u);  // single-threaded: all-or-none
  EXPECT_EQ(apply_stats.malformed_records, 0u);

  // The uncrashed twin: the same stream, no crash, no WAL.
  auto twin = HImpactService::Create(TwoStripeOptions()).value();
  for (int i = 0; i < kEvents; ++i) ApplyEvent(&twin, nullptr, i);

  EXPECT_EQ(recovered.Stats().registry.total_events, twin.Stats().registry.total_events);
  for (AuthorId user = 1; user <= 10; ++user) {
    EXPECT_EQ(recovered.PointHIndex(user), twin.PointHIndex(user))
        << "user " << user << " diverged after recovery";
  }
  RemoveTree(root);
}

TEST_F(WalTest, ReplayAfterTornTailRecoversTheDurablePrefixExactly) {
  const std::string root = TempPath("twin_torn");
  RemoveTree(root);
  std::filesystem::create_directories(root);
  const std::string wal_dir = root + "/wal";
  const std::string checkpoint = root + "/ckpt";
  constexpr int kEvents = 100;
  constexpr int kCheckpointAt = 30;

  WalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.fsync = WalFsync::kAlways;

  auto crashed = HImpactService::Create(TwoStripeOptions()).value();
  int durable_events = 0;
  {
    auto wal = WalWriter::Open(wal_options).value();
    for (int i = 0; i < kEvents; ++i) {
      // The torn-tail fault severs the log at event 80: that append
      // lands half a frame and the writer degrades, so the durable
      // prefix is events 0..79 even though the service applied all 100.
      if (i == 80) {
        FaultRegistry::Global().Arm(FaultPoint::kWalTornTail, FaultSpec{});
      }
      ApplyEvent(&crashed, wal.get(), i);
      if (!wal->degraded()) durable_events = i + 1;
      if (i + 1 == kCheckpointAt) {
        ASSERT_TRUE(crashed.CheckpointTo(checkpoint).ok());
      }
    }
    FaultRegistry::Global().Reset();
  }
  ASSERT_EQ(durable_events, 80);

  auto recovered = HImpactService::Create(TwoStripeOptions()).value();
  ASSERT_TRUE(recovered.RestoreFrom(checkpoint).ok());
  WalReplayStats read_stats;
  ASSERT_TRUE(ReplayWal(wal_dir, &recovered, &read_stats, nullptr).ok());
  EXPECT_EQ(read_stats.torn_tails, 1u);
  EXPECT_EQ(read_stats.records, static_cast<std::uint64_t>(durable_events));

  // The reference is a twin that consumed exactly the durable prefix.
  auto twin = HImpactService::Create(TwoStripeOptions()).value();
  for (int i = 0; i < durable_events; ++i) ApplyEvent(&twin, nullptr, i);
  EXPECT_EQ(recovered.Stats().registry.total_events, twin.Stats().registry.total_events);
  for (AuthorId user = 1; user <= 10; ++user) {
    EXPECT_EQ(recovered.PointHIndex(user), twin.PointHIndex(user));
  }
  RemoveTree(root);
}

TEST_F(WalTest, PerStripeGateAppliesOnlyTheMissingCoauthorHalves) {
  // A record can be half-covered when a checkpoint's per-stripe
  // snapshots straddle it (concurrent saves snapshot stripes one at a
  // time). Synthesize that shape directly: one stripe, a two-co-author
  // paper whose first author's seq the "checkpoint" already covers and
  // whose second author's does not. The gate must apply exactly the
  // missing half.
  ServiceOptions options;
  options.num_stripes = 1;
  options.enable_heavy_hitters = false;

  // Baseline: 4 events applied, so StripeEvents(0) == 4.
  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 4; ++i) {
    service.RecordResponseCount(static_cast<AuthorId>(50), 10);
  }
  const double user1_before = service.PointHIndex(1);
  const double user2_before = service.PointHIndex(2);

  // The paper that "straddled the snapshot": author 1 applied as stripe
  // event 4 (covered), author 2 as stripe event 5 (lost in the crash).
  PaperTuple paper;
  paper.paper = 7;
  paper.citations = 25;
  paper.authors.PushBack(1);
  paper.authors.PushBack(2);
  const std::string dir = TempPath("gate");
  RemoveTree(dir);
  WalOptions wal_options;
  wal_options.dir = dir;
  wal_options.fsync = WalFsync::kAlways;
  {
    auto wal = WalWriter::Open(wal_options).value();
    ASSERT_TRUE(wal->Append(
        EncodeWalPaper(paper, std::vector<std::uint64_t>{4, 5})).ok());
  }

  WalApplyStats apply_stats;
  ASSERT_TRUE(ReplayWal(dir, &service, nullptr, &apply_stats).ok());
  EXPECT_EQ(apply_stats.partial_papers, 1u);
  EXPECT_EQ(apply_stats.applied_papers, 0u);
  // Author 1's copy was covered — replaying it would double-count.
  EXPECT_EQ(service.PointHIndex(1), user1_before);
  // Author 2's copy was lost — replay must supply it.
  EXPECT_GT(service.PointHIndex(2), user2_before);
  EXPECT_EQ(service.Stats().registry.total_events, 5u);
  RemoveTree(dir);
}

TEST_F(WalTest, FullyCoveredAndMalformedRecordsAreSkippedNotFatal) {
  ServiceOptions options;
  options.num_stripes = 1;
  options.enable_heavy_hitters = false;
  auto service = HImpactService::Create(options).value();
  for (int i = 0; i < 3; ++i) {
    service.RecordResponseCount(static_cast<AuthorId>(9), 5);
  }

  const std::string dir = TempPath("skip");
  RemoveTree(dir);
  WalOptions wal_options;
  wal_options.dir = dir;
  wal_options.fsync = WalFsync::kAlways;
  {
    auto wal = WalWriter::Open(wal_options).value();
    // Fully covered: stripe is already past seq 2.
    ASSERT_TRUE(wal->Append(EncodeWalAdd(9, 5, 2)).ok());
    // Malformed payloads with valid frames: unknown type byte, a
    // truncated add, an empty payload, a paper claiming 0 authors.
    using Bytes = std::vector<std::uint8_t>;
    ASSERT_TRUE(wal->Append(Bytes{0x7F, 0x01, 0x02}).ok());
    ASSERT_TRUE(wal->Append(Bytes{kWalEventAdd, 0x01}).ok());
    ASSERT_TRUE(wal->Append({}).ok());
    ASSERT_TRUE(wal->Append(Bytes{kWalEventPaper, 1, 0, 0, 0, 0, 0, 0, 0, 1,
                                  0, 0, 0, 0, 0, 0, 0, 0}).ok());
    // One genuinely new record.
    ASSERT_TRUE(wal->Append(EncodeWalAdd(9, 7, 4)).ok());
  }

  WalApplyStats apply_stats;
  ASSERT_TRUE(ReplayWal(dir, &service, nullptr, &apply_stats).ok());
  EXPECT_EQ(apply_stats.skipped_records, 1u);
  EXPECT_EQ(apply_stats.malformed_records, 4u);
  EXPECT_EQ(apply_stats.applied_adds, 1u);
  EXPECT_EQ(service.Stats().registry.total_events, 4u);
  RemoveTree(dir);
}

TEST_F(WalTest, HeavyHitterPathSurvivesRecoveryIdentically) {
  // Heavy hitters on: replayed adds re-synthesize the same papers the
  // original adds did, and replayed first-author paper copies feed the
  // same HH stream — so the recovered leaderboard inputs match the
  // twin's exactly (asserted through the estimates, which the HH tier
  // would perturb if fed differently).
  ServiceOptions options;
  options.num_stripes = 2;
  options.promote_threshold = 8;
  options.enable_heavy_hitters = true;

  const std::string root = TempPath("hh");
  RemoveTree(root);
  std::filesystem::create_directories(root);
  const std::string wal_dir = root + "/wal";
  const std::string checkpoint = root + "/ckpt";
  WalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.fsync = WalFsync::kAlways;

  auto crashed = HImpactService::Create(options).value();
  {
    auto wal = WalWriter::Open(wal_options).value();
    for (int i = 0; i < 120; ++i) {
      ApplyEvent(&crashed, wal.get(), i);
      if (i + 1 == 50) {
        ASSERT_TRUE(crashed.CheckpointTo(checkpoint).ok());
      }
    }
  }
  auto recovered = HImpactService::Create(options).value();
  ASSERT_TRUE(recovered.RestoreFrom(checkpoint).ok());
  ASSERT_TRUE(ReplayWal(wal_dir, &recovered, nullptr, nullptr).ok());

  auto twin = HImpactService::Create(options).value();
  for (int i = 0; i < 120; ++i) ApplyEvent(&twin, nullptr, i);
  EXPECT_EQ(recovered.Stats().registry.total_events, twin.Stats().registry.total_events);
  for (AuthorId user = 1; user <= 10; ++user) {
    EXPECT_EQ(recovered.PointHIndex(user), twin.PointHIndex(user));
  }
  RemoveTree(root);
}

// --- parallel replay against the serial reference ----------------------------

// The serial replay loop `ReplayWal` ran before it split into a serial
// gate and parallel per-stripe jobs, kept (decoder included) as the
// oracle for the parallel one. It applies every record through
// `ApplyPaper`, an add as its `ResponseCountPaper`, with the stripe
// gates' verdicts as author bits and the grid's gate, on the counts the
// grid was saved at, as `feed_grid`.
struct ReferenceWalEvent {
  std::uint8_t type = 0;
  // add
  AuthorId user = 0;
  std::uint64_t value = 0;
  std::uint64_t stripe_seq = 0;
  // paper
  PaperTuple paper;
  std::vector<std::uint64_t> stripe_seqs;
};

bool ReferenceDecodeWalEvent(const std::vector<std::uint8_t>& payload,
                             ReferenceWalEvent* event) {
  ByteReader reader(payload);
  if (!reader.U8(&event->type)) return false;
  if (event->type == kWalEventAdd) {
    return reader.U64(&event->user) && reader.U64(&event->value) &&
           reader.U64(&event->stripe_seq) && reader.AtEnd();
  }
  if (event->type == kWalEventPaper) {
    std::uint8_t nauthors = 0;
    if (!reader.U64(&event->paper.paper) ||
        !reader.U64(&event->paper.citations) || !reader.U8(&nauthors)) {
      return false;
    }
    if (nauthors == 0 || nauthors > kMaxAuthorsPerPaper) return false;
    for (std::uint8_t a = 0; a < nauthors; ++a) {
      AuthorId author = 0;
      std::uint64_t seq = 0;
      if (!reader.U64(&author) || !reader.U64(&seq)) return false;
      event->paper.authors.PushBack(author);
      event->stripe_seqs.push_back(seq);
    }
    return reader.AtEnd();
  }
  return false;
}

Status ReferenceReplayWal(const std::string& dir, HImpactService* service,
                          WalReplayStats* read_stats,
                          WalApplyStats* apply_stats) {
  WalApplyStats local;
  WalApplyStats* out = apply_stats != nullptr ? apply_stats : &local;
  *out = WalApplyStats{};

  auto records_or = ReadWalRecords(dir, read_stats);
  if (!records_or.ok()) return records_or.status();

  const TieredUserRegistry& registry = service->registry();
  const std::vector<std::uint64_t> grid_coverage = service->GridCoverage();
  const auto feeds_grid = [&](AuthorId first, std::uint64_t seq) {
    return !grid_coverage.empty() &&
           seq > grid_coverage[registry.StripeOf(first)];
  };
  for (const std::vector<std::uint8_t>& payload : records_or.value()) {
    ReferenceWalEvent event;
    if (!ReferenceDecodeWalEvent(payload, &event)) {
      ++out->malformed_records;
      continue;
    }
    if (event.type == kWalEventAdd) {
      const std::size_t stripe = registry.StripeOf(event.user);
      const bool to_stripe = event.stripe_seq > registry.StripeEvents(stripe);
      const bool to_grid = feeds_grid(event.user, event.stripe_seq);
      if (to_stripe || to_grid) {
        service->ApplyPaper(service->ResponseCountPaper(
                                event.user, event.value, event.stripe_seq),
                            to_stripe ? 1u : 0u, to_grid);
        ++out->applied_adds;
      } else {
        ++out->skipped_records;
      }
      continue;
    }
    // Paper: gate each author against its stripe, tracking the applies
    // this record itself will make so same-stripe co-authors gate
    // against the right running count.
    std::unordered_map<std::size_t, std::uint64_t> simulated;
    std::uint32_t bits = 0;
    int applied = 0;
    for (int a = 0; a < event.paper.authors.size(); ++a) {
      const std::size_t stripe = registry.StripeOf(event.paper.authors[a]);
      auto [it, inserted] = simulated.try_emplace(stripe, 0);
      if (inserted) it->second = registry.StripeEvents(stripe);
      if (event.stripe_seqs[static_cast<std::size_t>(a)] > it->second) {
        bits |= 1u << a;
        ++it->second;
        ++applied;
      }
    }
    const bool to_grid =
        feeds_grid(event.paper.authors[0], event.stripe_seqs[0]);
    if (applied == 0 && !to_grid) {
      ++out->skipped_records;
      continue;
    }
    service->ApplyPaper(event.paper, bits, to_grid);
    if (applied == event.paper.authors.size()) {
      ++out->applied_papers;
    } else {
      ++out->partial_papers;
    }
  }
  return Status::OK();
}

ServiceOptions RandomLogOptions(std::size_t stripes) {
  ServiceOptions options;
  options.num_stripes = stripes;
  options.promote_threshold = 6;  // hot-tier sketches, not only cold lists
  options.memory_budget_bytes = 48 * 1024 * stripes;  // forces demotions
  options.leaderboard_capacity = 8;
  options.enable_heavy_hitters = true;
  options.hh_eps = 0.5;  // a small grid keeps 8-stripe saves cheap
  options.hh_delta = 0.3;
  return options;
}

// Writes a seeded random log over `stripes` stripes into `root/wal` and
// a checkpoint taken mid-log into `root/ckpt`. The log holds three
// segments of adds and papers with 1..kMaxAuthorsPerPaper authors from
// a small author pool (so co-authors often share a stripe); the records
// before the checkpoint are stale. Mixed in are papers covered on only
// some stripes — the covered authors log a sequence their stripe
// already passed, the shape a save racing ingest leaves — and one
// malformed payload, and the log ends in a torn tail.
void WriteRandomLog(const std::string& root, std::size_t stripes,
                    std::uint64_t seed) {
  Rng rng(seed);
  auto live = HImpactService::Create(RandomLogOptions(stripes)).value();
  const TieredUserRegistry& registry = live.registry();
  WalOptions wal_options;
  wal_options.dir = root + "/wal";
  wal_options.fsync = WalFsync::kNever;
  constexpr int kSegments = 3;
  constexpr int kPerSegment = 160;
  PaperId next_paper = 1;
  for (int segment = 0; segment < kSegments; ++segment) {
    auto wal = WalWriter::Open(wal_options).value();
    for (int i = 0; i < kPerSegment; ++i) {
      const int n = segment * kPerSegment + i;
      if (n == kPerSegment / 2) {
        ASSERT_TRUE(live.CheckpointTo(root + "/ckpt").ok());
      }
      if (n == kPerSegment + 7) {
        ASSERT_TRUE(wal->Append(std::vector<std::uint8_t>{kWalEventPaper,
                                                          0x01, 0x02})
                        .ok());
      }
      const std::uint64_t value = 1 + rng.UniformU64(60);
      if (rng.Bernoulli(0.3)) {
        const AuthorId user = 1 + rng.UniformU64(40);
        live.RecordResponseCount(user, value);
        ASSERT_TRUE(AppendWalAdd(wal.get(), live, user, value).ok());
        continue;
      }
      PaperTuple paper;
      paper.paper = next_paper++;
      paper.citations = value;
      const int nauthors =
          1 + static_cast<int>(rng.UniformU64(kMaxAuthorsPerPaper));
      for (int a = 0; a < nauthors; ++a) {
        paper.authors.PushBack(1 + rng.UniformU64(40));
      }
      if (nauthors == 1 || !rng.Bernoulli(0.15)) {
        live.IngestPaper(paper);
        ASSERT_TRUE(AppendWalPaper(wal.get(), live, paper).ok());
        continue;
      }
      // Partially covered: apply a random strict, non-empty subset of
      // the authors; each covered author logs its stripe's current
      // count, each applied one its post-apply count.
      std::uint32_t bits = 0;
      while (true) {
        bits = 0;
        int applied = 0;
        for (int a = 0; a < nauthors; ++a) {
          if (rng.Bernoulli(0.5)) {
            bits |= 1u << a;
            ++applied;
          }
        }
        if (applied > 0 && applied < nauthors) break;
      }
      std::unordered_map<std::size_t, std::uint64_t> counts;
      std::vector<std::uint64_t> seqs;
      for (int a = 0; a < nauthors; ++a) {
        const std::size_t stripe = registry.StripeOf(paper.authors[a]);
        auto [it, inserted] = counts.try_emplace(stripe, 0);
        if (inserted) it->second = registry.StripeEvents(stripe);
        if (((bits >> a) & 1u) != 0) ++it->second;
        seqs.push_back(it->second);
      }
      live.ApplyPaper(paper, bits, (bits & 1u) != 0);
      ASSERT_TRUE(wal->Append(EncodeWalPaper(paper, seqs)).ok());
    }
    if (segment + 1 == kSegments) {
      // The crash: the next append lands half a frame.
      FaultRegistry::Global().Arm(FaultPoint::kWalTornTail, FaultSpec{});
      (void)AppendWalAdd(wal.get(), live, 1, 1);
      FaultRegistry::Global().Reset();
    }
  }
}

// Every checkpoint file a full save to `path` writes, by name suffix.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> SavedFiles(
    const HImpactService& service, const std::string& path) {
  EXPECT_TRUE(service.CheckpointTo(path).ok());
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> files;
  files.emplace_back("", ReadAll(path));
  for (std::size_t i = 0; i < service.options().num_stripes; ++i) {
    files.emplace_back(".stripe-" + std::to_string(i),
                       ReadAll(HImpactService::StripePath(path, i)));
  }
  files.emplace_back(".grid", ReadAll(HImpactService::GridPath(path)));
  return files;
}

TEST_F(WalTest, ParallelReplayEqualsSerialReferenceOnRandomLogs) {
  for (const std::size_t stripes : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("stripes " + std::to_string(stripes) + " seed " +
                   std::to_string(seed));
      const std::string root = TempPath("parallel");
      RemoveTree(root);
      std::filesystem::create_directories(root);
      WriteRandomLog(root, stripes, seed * 7919 + stripes);
      if (HasFatalFailure()) return;
      // Replay repairs the log in place, so each side gets its own copy.
      std::filesystem::copy(root + "/wal", root + "/wal-ref");

      auto parallel = HImpactService::Create(RandomLogOptions(stripes)).value();
      auto reference = HImpactService::Create(RandomLogOptions(stripes)).value();
      ASSERT_TRUE(parallel.RestoreFrom(root + "/ckpt").ok());
      ASSERT_TRUE(reference.RestoreFrom(root + "/ckpt").ok());
      WalReplayStats read, ref_read;
      WalApplyStats apply, ref_apply;
      ASSERT_TRUE(ReplayWal(root + "/wal", &parallel, &read, &apply).ok());
      ASSERT_TRUE(ReferenceReplayWal(root + "/wal-ref", &reference, &ref_read,
                                     &ref_apply)
                      .ok());

      // The log exercised every gate verdict and the repair path.
      EXPECT_EQ(ref_read.segments, 3u);
      EXPECT_EQ(ref_read.torn_tails, 1u);
      EXPECT_GT(ref_apply.applied_adds, 0u);
      EXPECT_GT(ref_apply.applied_papers, 0u);
      EXPECT_GT(ref_apply.partial_papers, 0u);
      EXPECT_GT(ref_apply.skipped_records, 0u);
      EXPECT_EQ(ref_apply.malformed_records, 1u);

      EXPECT_EQ(read.segments, ref_read.segments);
      EXPECT_EQ(read.records, ref_read.records);
      EXPECT_EQ(read.torn_tails, ref_read.torn_tails);
      EXPECT_EQ(read.dropped_segments, ref_read.dropped_segments);
      EXPECT_EQ(read.discarded_bytes, ref_read.discarded_bytes);
      EXPECT_EQ(apply.applied_adds, ref_apply.applied_adds);
      EXPECT_EQ(apply.applied_papers, ref_apply.applied_papers);
      EXPECT_EQ(apply.partial_papers, ref_apply.partial_papers);
      EXPECT_EQ(apply.skipped_records, ref_apply.skipped_records);
      EXPECT_EQ(apply.malformed_records, ref_apply.malformed_records);

      const auto got = SavedFiles(parallel, root + "/out-parallel");
      const auto want = SavedFiles(reference, root + "/out-reference");
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t f = 0; f < got.size(); ++f) {
        EXPECT_FALSE(want[f].second.empty());
        EXPECT_TRUE(got[f].second == want[f].second)
            << "checkpoint file '" << want[f].first << "' differs";
      }
      RemoveTree(root);
    }
  }
}

// The grid run depends only on the set of its tuples: replaying every
// record's registry half in log order but feeding the grid tuples last,
// in reverse log order, saves the same files as `ReplayWal`. An add's
// tuple comes from its logged sequence, as `ReplayWal` derives it.
TEST_F(WalTest, GridHalvesFedInReverseLogOrderSaveTheSameBytes) {
  for (const std::size_t stripes : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("stripes " + std::to_string(stripes) + " seed " +
                   std::to_string(seed));
      const std::string root = TempPath("reversed");
      RemoveTree(root);
      std::filesystem::create_directories(root);
      WriteRandomLog(root, stripes, seed * 104729 + stripes);
      if (HasFatalFailure()) return;
      std::filesystem::copy(root + "/wal", root + "/wal-rev");

      const ServiceOptions options = RandomLogOptions(stripes);
      auto log_order = HImpactService::Create(options).value();
      auto reversed = HImpactService::Create(options).value();
      ASSERT_TRUE(log_order.RestoreFrom(root + "/ckpt").ok());
      ASSERT_TRUE(reversed.RestoreFrom(root + "/ckpt").ok());
      ASSERT_TRUE(ReplayWal(root + "/wal", &log_order, nullptr, nullptr).ok());

      const TieredUserRegistry& registry = reversed.registry();
      const std::vector<std::uint64_t> coverage = reversed.GridCoverage();
      std::vector<std::uint64_t> counts(stripes);
      for (std::size_t s = 0; s < stripes; ++s) {
        counts[s] = registry.StripeEvents(s);
      }
      std::vector<PaperTuple> grid;
      std::size_t grid_adds = 0;
      const auto records = ReadWalRecords(root + "/wal-rev", nullptr).value();
      for (const std::vector<std::uint8_t>& payload : records) {
        ReferenceWalEvent event;
        if (!ReferenceDecodeWalEvent(payload, &event)) continue;
        PaperTuple paper = event.paper;
        std::vector<std::uint64_t> seqs = event.stripe_seqs;
        if (event.type == kWalEventAdd) {
          paper = reversed.ResponseCountPaper(event.user, event.value,
                                              event.stripe_seq);
          seqs = {event.stripe_seq};
        }
        std::uint32_t bits = 0;
        for (int a = 0; a < paper.authors.size(); ++a) {
          std::uint64_t& count = counts[registry.StripeOf(paper.authors[a])];
          if (seqs[static_cast<std::size_t>(a)] <= count) continue;
          ++count;
          bits |= 1u << a;
        }
        reversed.ApplyPaper(paper, bits, /*feed_grid=*/false);
        if (seqs[0] > coverage[registry.StripeOf(paper.authors[0])]) {
          grid.push_back(paper);
          grid_adds += event.type == kWalEventAdd ? 1 : 0;
        }
      }
      EXPECT_GT(grid_adds, 0u);
      EXPECT_GT(grid.size(), grid_adds);
      for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
        reversed.ApplyPaper(*it, 0, /*feed_grid=*/true);
      }

      const auto got = SavedFiles(reversed, root + "/out-reversed");
      const auto want = SavedFiles(log_order, root + "/out-log-order");
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t f = 0; f < got.size(); ++f) {
        EXPECT_TRUE(got[f].second == want[f].second)
            << "checkpoint file '" << want[f].first << "' differs";
      }
      RemoveTree(root);
    }
  }
}

// A save writes every stripe file, then the grid, then the manifest,
// and only a save that completes rotates the log. Cut one short after
// each write in turn: the stripe files it rewrote are then newer than
// the grid, whose own saved counts must gate its replay. Restore plus
// replay equals the uncrashed twin in every answer, the heavy report
// and a save's bytes.
TEST_F(WalTest, SaveCutShortThenReplayEqualsTheUncrashedTwin) {
  ServiceOptions options;
  options.num_stripes = 4;
  options.promote_threshold = 8;
  options.enable_heavy_hitters = true;
  const std::size_t writes = options.num_stripes + 2;
  for (std::size_t completed = 0; completed < writes; ++completed) {
    SCOPED_TRACE("cut after " + std::to_string(completed) + " writes");
    const std::string root = TempPath("cut_save");
    RemoveTree(root);
    std::filesystem::create_directories(root);
    const std::string checkpoint = root + "/ckpt";
    WalOptions wal_options;
    wal_options.dir = root + "/wal";
    wal_options.fsync = WalFsync::kNever;

    auto crashed = HImpactService::Create(options).value();
    auto twin = HImpactService::Create(options).value();
    {
      auto wal = WalWriter::Open(wal_options).value();
      for (int i = 0; i < 300; ++i) {
        ApplyEvent(&crashed, wal.get(), i);
        ApplyEvent(&twin, nullptr, i);
        if (i + 1 == 100) {
          ASSERT_TRUE(crashed.CheckpointTo(checkpoint).ok());
          ASSERT_TRUE(wal->Rotate().ok());
        }
      }
      FaultSpec cut;
      cut.skip = completed;
      FaultRegistry::Global().Arm(FaultPoint::kTornCheckpoint, cut);
      EXPECT_FALSE(crashed.CheckpointTo(checkpoint).ok());
      FaultRegistry::Global().Reset();
    }

    auto recovered = HImpactService::Create(options).value();
    ASSERT_TRUE(recovered.RestoreFrom(checkpoint).ok());
    ASSERT_TRUE(
        ReplayWal(wal_options.dir, &recovered, nullptr, nullptr).ok());
    EXPECT_EQ(recovered.Stats().hh_papers, twin.Stats().hh_papers);
    for (AuthorId user = 1; user <= 10; ++user) {
      EXPECT_EQ(recovered.PointHIndex(user), twin.PointHIndex(user))
          << "user " << user;
    }
    const std::vector<HeavyHitterReport> want = twin.HeavyReport();
    const std::vector<HeavyHitterReport> got = recovered.HeavyReport();
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].author, want[i].author);
      EXPECT_EQ(got[i].h_estimate, want[i].h_estimate);
      EXPECT_EQ(got[i].detections, want[i].detections);
    }
    const auto got_files = SavedFiles(recovered, root + "/out-recovered");
    const auto want_files = SavedFiles(twin, root + "/out-twin");
    ASSERT_EQ(got_files.size(), want_files.size());
    for (std::size_t f = 0; f < got_files.size(); ++f) {
      EXPECT_TRUE(got_files[f].second == want_files[f].second)
          << "checkpoint file '" << want_files[f].first << "' differs";
    }
    RemoveTree(root);
  }
}

}  // namespace
