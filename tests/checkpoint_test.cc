// Crash-safe checkpointing: envelope framing, full-coverage round trips
// for every serializable type, exhaustive fault injection (every 1-byte
// truncation, every header bit flip), and the atomic file layer with its
// RestoreOrFallback degradation.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/envelope.h"
#include "core/cash_register.h"
#include "core/exact.h"
#include "core/exponential_histogram.h"
#include "core/random_order.h"
#include "core/shifting_window.h"
#include "hash/tabulation.h"
#include "heavy/heavy_hitters.h"
#include "heavy/one_heavy_hitter.h"
#include "io/checkpoint.h"
#include "random/rng.h"
#include "service/service.h"
#include "sketch/bjkst.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/distinct.h"
#include "sketch/hyperloglog.h"
#include "sketch/kll.h"
#include "sketch/l0_sampler.h"
#include "sketch/one_sparse.h"
#include "sketch/s_sparse.h"
#include "sketch/space_saving.h"
#include "fault_injection.h"

namespace himpact {
namespace {

// A sealed checkpoint plus the full decode path (envelope + sketch +
// exact-length), so corruption sweeps can run uniformly over all types.
struct CorruptionCase {
  std::string name;
  std::vector<std::uint8_t> sealed;
  std::function<Status(const std::vector<std::uint8_t>&)> decode;
};

// `decode_sketch(reader)` restores a `Sketch` (its `DeserializeFrom`,
// plus whatever the type needs from its caller).
template <typename Sketch, typename Decode>
CorruptionCase MakeCase(std::string name, CheckpointTag tag,
                        const Sketch& sketch, Decode decode_sketch) {
  ByteWriter writer;
  sketch.SerializeTo(writer);
  CorruptionCase c;
  c.name = std::move(name);
  c.sealed = SealEnvelope(tag, writer.buffer());
  c.decode = [tag, decode_sketch](
                 const std::vector<std::uint8_t>& bytes) -> Status {
    StatusOr<std::vector<std::uint8_t>> payload = OpenEnvelope(bytes, tag);
    if (!payload.ok()) return payload.status();
    ByteReader reader(payload.value());
    StatusOr<Sketch> restored = decode_sketch(reader);
    if (!restored.ok()) return restored.status();
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes");
    }
    return Status::OK();
  };
  return c;
}

template <typename Sketch>
CorruptionCase MakeCase(std::string name, CheckpointTag tag,
                        const Sketch& sketch) {
  return MakeCase(std::move(name), tag, sketch, [](ByteReader& reader) {
    return Sketch::DeserializeFrom(reader);
  });
}

// The standalone Algorithm 7 detector's priority hash (in Algorithm 8
// the grid owns it).
const TabulationHash& OneHhPriority() {
  static const TabulationHash priority(21);
  return priority;
}

OneHeavyHitter::Options SmallOneHhOptions() {
  OneHeavyHitter::Options options;
  options.eps = 0.3;
  options.delta = 0.2;
  options.max_papers = 256;
  return options;
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (path.back() != '/') path += '/';
  path += "himpact_checkpoint_test_";
  path += name;
  path += ".";
  path += std::to_string(static_cast<long long>(::testing::UnitTest::
                                                    GetInstance()
                                                        ->random_seed()));
  return path;
}

// A small service whose grid file goes through the whole restore.
ServiceOptions SmallGridServiceOptions() {
  ServiceOptions options;
  options.num_stripes = 2;
  options.hh_eps = 0.9;  // 3 buckets
  options.hh_delta = 0.3;  // 2 rows
  options.hh_max_papers = 16;  // 7 levels
  return options;
}

// A checkpoint of a small service at `path` whose manifest and stripe
// files are sound, and the sealed bytes of its grid file.
std::vector<std::uint8_t> SaveSmallGridService(const std::string& path) {
  auto service = HImpactService::Create(SmallGridServiceOptions()).value();
  for (std::uint64_t p = 0; p < 12; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations = 1 + p % 15;
    paper.authors.PushBack(p % 4);
    service.IngestPaper(paper);
  }
  EXPECT_TRUE(service.CheckpointTo(path).ok());
  return ReadFileBytes(HImpactService::GridPath(path)).value();
}

// One stocked instance of every serializable type, kept deliberately
// small so exhaustive byte-level sweeps stay fast.
std::vector<CorruptionCase> AllCases() {
  std::vector<CorruptionCase> cases;

  {
    auto sketch = ExponentialHistogramEstimator::Create(0.2, 1000).value();
    for (std::uint64_t v = 1; v <= 200; ++v) sketch.Add(v);
    cases.push_back(
        MakeCase("exponential_histogram",
                 CheckpointTag::kExponentialHistogram, sketch));
  }
  {
    auto sketch = ShiftingWindowEstimator::Create(0.2).value();
    for (std::uint64_t v = 1; v <= 200; ++v) sketch.Add(v % 50);
    cases.push_back(
        MakeCase("shifting_window", CheckpointTag::kShiftingWindow, sketch));
  }
  {
    OneSparseCell cell(11);
    cell.Update(42, 7);
    cases.push_back(MakeCase("one_sparse", CheckpointTag::kOneSparse, cell));
  }
  {
    SSparseRecovery sketch(4, 0.2, 12);
    for (std::uint64_t i = 0; i < 3; ++i) sketch.Update(10 + i, 2);
    cases.push_back(MakeCase("s_sparse", CheckpointTag::kSSparse, sketch));
  }
  {
    L0Sampler sampler(64, 0.2, 13);
    for (std::uint64_t i = 0; i < 20; ++i) sampler.Update(i * 3 % 64, 1);
    cases.push_back(MakeCase("l0_sampler", CheckpointTag::kL0Sampler, sampler));
  }
  {
    DistinctCounter counter(0.3, 0.1, 14);
    for (std::uint64_t i = 0; i < 300; ++i) counter.Add(i % 120);
    cases.push_back(MakeCase("distinct", CheckpointTag::kDistinct, counter));
  }
  {
    BjkstDistinct counter(0.3, 15);
    for (std::uint64_t i = 0; i < 300; ++i) counter.Add(i % 90);
    cases.push_back(MakeCase("bjkst", CheckpointTag::kBjkst, counter));
  }
  {
    HyperLogLog counter(6, 16);
    for (std::uint64_t i = 0; i < 500; ++i) counter.Add(i % 333);
    cases.push_back(
        MakeCase("hyperloglog", CheckpointTag::kHyperLogLog, counter));
  }
  {
    KllSketch sketch(16, 17);
    for (std::uint64_t i = 0; i < 400; ++i) sketch.Add(i * 37 % 1000);
    cases.push_back(MakeCase("kll", CheckpointTag::kKll, sketch));
  }
  {
    CountMinSketch sketch(0.1, 0.1, 18);
    for (std::uint64_t i = 0; i < 200; ++i) sketch.Update(i % 20, 1 + i % 3);
    cases.push_back(MakeCase("count_min", CheckpointTag::kCountMin, sketch));
  }
  {
    CountSketch sketch(16, 3, 19);
    for (std::uint64_t i = 0; i < 200; ++i) sketch.Update(i % 25);
    cases.push_back(
        MakeCase("count_sketch", CheckpointTag::kCountSketch, sketch));
  }
  {
    SpaceSaving sketch(8);
    for (std::uint64_t i = 0; i < 200; ++i) sketch.Update(i % 13, 1 + i % 2);
    cases.push_back(
        MakeCase("space_saving", CheckpointTag::kSpaceSaving, sketch));
  }
  {
    MisraGries sketch(8);
    for (std::uint64_t i = 0; i < 200; ++i) sketch.Update(i % 13);
    cases.push_back(MakeCase("misra_gries", CheckpointTag::kMisraGries, sketch));
  }
  {
    CashRegisterOptions options;
    options.num_samplers_override = 2;
    auto sketch = CashRegisterEstimator::Create(0.3, 0.2, 64, 20, options)
                      .value();
    for (std::uint64_t i = 0; i < 100; ++i) sketch.Update(i % 64, 1);
    cases.push_back(
        MakeCase("cash_register", CheckpointTag::kCashRegister, sketch));
  }
  {
    auto sketch = RandomOrderEstimator::Create(0.3, 500).value();
    for (std::uint64_t i = 0; i < 200; ++i) sketch.Add(i % 60);
    cases.push_back(
        MakeCase("random_order", CheckpointTag::kRandomOrder, sketch));
  }
  {
    auto sketch = OneHeavyHitter::Create(SmallOneHhOptions()).value();
    for (std::uint64_t p = 0; p < 40; ++p) {
      PaperTuple paper;
      paper.paper = p;
      paper.citations = 1 + p % 20;
      paper.authors.PushBack(p % 3);
      sketch.AddPaper(paper, OneHhPriority()(p));
    }
    cases.push_back(MakeCase(
        "one_heavy_hitter", CheckpointTag::kOneHeavyHitter, sketch,
        [](ByteReader& reader) {
          return OneHeavyHitter::DeserializeFrom(reader, OneHhPriority());
        }));
  }
  {
    HeavyHitters::Options options;
    options.eps = 0.3;
    options.delta = 0.2;
    options.max_papers = 256;
    options.num_buckets_override = 2;
    options.num_rows_override = 1;
    auto sketch = HeavyHitters::Create(options, 22).value();
    for (std::uint64_t p = 0; p < 30; ++p) {
      PaperTuple paper;
      paper.paper = p;
      paper.citations = 1 + p % 15;
      paper.authors.PushBack(p % 4);
      sketch.AddPaper(paper);
    }
    cases.push_back(
        MakeCase("heavy_hitters", CheckpointTag::kHeavyHitters, sketch));
  }
  {
    // A service's `path.grid`, decoded by a whole restore.
    const std::string path = TempPath("service_grid");
    CorruptionCase c;
    c.name = "service_grid";
    c.sealed = SaveSmallGridService(path);
    c.decode = [path](const std::vector<std::uint8_t>& bytes) -> Status {
      if (!test::WriteFileRaw(HImpactService::GridPath(path), bytes)) {
        return Status::Internal("cannot write the grid file");
      }
      auto service = HImpactService::Create(SmallGridServiceOptions()).value();
      return service.RestoreFrom(path);
    };
    cases.push_back(std::move(c));
  }
  {
    IncrementalExactHIndex exact;
    for (std::uint64_t v = 0; v < 100; ++v) exact.Add(v % 40);
    cases.push_back(
        MakeCase("incremental_exact", CheckpointTag::kIncrementalExact, exact));
  }
  {
    ExactCashRegisterHIndex exact;
    for (std::uint64_t i = 0; i < 150; ++i) exact.Update(i % 30, 1 + i % 4);
    cases.push_back(MakeCase("exact_cash_register",
                             CheckpointTag::kExactCashRegister, exact));
  }
  return cases;
}

// --- CRC32 ------------------------------------------------------------------

// Bit-at-a-time CRC32 over the reflected IEEE polynomial: the definition,
// with no table, so it shares no code with the sliced implementation.
std::uint32_t ReferenceCrc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..300 at start offsets 0..7 covers the 8-byte main
  // loop, every tail length, and every misalignment of the loads.
  std::vector<std::uint8_t> buffer(300 + 8);
  Rng rng(0xC3C32u);
  for (std::uint8_t& byte : buffer) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::uint8_t* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, length), ReferenceCrc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
}

// --- envelope ---------------------------------------------------------------

TEST(EnvelopeTest, SealOpenRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto sealed = SealEnvelope(CheckpointTag::kKll, payload);
  ASSERT_EQ(sealed.size(), payload.size() + kEnvelopeHeaderBytes);
  auto opened = OpenEnvelope(sealed, CheckpointTag::kKll);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value(), payload);
}

TEST(EnvelopeTest, WrongTagRejected) {
  const auto sealed = SealEnvelope(CheckpointTag::kKll, {1, 2, 3});
  EXPECT_FALSE(OpenEnvelope(sealed, CheckpointTag::kCountMin).ok());
}

TEST(EnvelopeTest, EmptyPayloadRoundTrips) {
  const auto sealed = SealEnvelope(CheckpointTag::kDgim, {});
  auto opened = OpenEnvelope(sealed, CheckpointTag::kDgim);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

// --- full-coverage round trips ---------------------------------------------

TEST(CheckpointRoundTripTest, EveryTypeDecodesFromItsOwnCheckpoint) {
  for (const CorruptionCase& c : AllCases()) {
    EXPECT_TRUE(c.decode(c.sealed).ok()) << c.name;
  }
}

TEST(CheckpointRoundTripTest, TypesRejectEachOthersCheckpoints) {
  // The envelope tag keeps a checkpoint of one type away from another
  // type's decoder: every cross pairing must fail cleanly.
  const auto cases = AllCases();
  for (const CorruptionCase& donor : cases) {
    for (const CorruptionCase& recipient : cases) {
      if (donor.name == recipient.name) continue;
      const Status status = recipient.decode(donor.sealed);
      EXPECT_FALSE(status.ok()) << donor.name << " -> " << recipient.name;
    }
  }
}

// Estimate-preserving restores, for the types whose query output the
// generic sweep cannot compare.

TEST(CheckpointRoundTripTest, DistinctEstimatePreserved) {
  DistinctCounter live(0.2, 0.1, 31);
  for (std::uint64_t i = 0; i < 1000; ++i) live.Add(i % 321);
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored = DistinctCounter::DeserializeFrom(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), live.Estimate());
}

TEST(CheckpointRoundTripTest, KllContinuesBitIdentically) {
  // The KLL rng state rides along, so live and restored stay identical
  // even through randomized compactions after the checkpoint.
  KllSketch live(32, 32);
  for (std::uint64_t i = 0; i < 500; ++i) live.Add(i * 13 % 997);
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored_or = KllSketch::DeserializeFrom(reader);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  auto restored = std::move(restored_or).value();
  for (std::uint64_t i = 0; i < 2000; ++i) {
    live.Add(i * 7 % 997);
    restored.Add(i * 7 % 997);
  }
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(restored.Quantile(q), live.Quantile(q));
  }
}

TEST(CheckpointRoundTripTest, CashRegisterContinuesIdentically) {
  CashRegisterOptions options;
  options.num_samplers_override = 4;
  auto live = CashRegisterEstimator::Create(0.3, 0.2, 128, 33, options)
                  .value();
  for (std::uint64_t i = 0; i < 200; ++i) live.Update(i % 128, 1 + i % 3);
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored_or = CashRegisterEstimator::DeserializeFrom(reader);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  auto restored = std::move(restored_or).value();
  for (std::uint64_t i = 0; i < 300; ++i) {
    live.Update(i * 5 % 128, 1);
    restored.Update(i * 5 % 128, 1);
  }
  EXPECT_DOUBLE_EQ(restored.Estimate(), live.Estimate());
  EXPECT_DOUBLE_EQ(restored.DistinctEstimate(), live.DistinctEstimate());
}

TEST(CheckpointRoundTripTest, HeavyHittersReportPreserved) {
  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.2;
  options.max_papers = 1024;
  options.num_buckets_override = 4;
  options.num_rows_override = 2;
  auto live = HeavyHitters::Create(options, 34).value();
  for (std::uint64_t p = 0; p < 200; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations = 1 + p % 40;
    paper.authors.PushBack(p % 7);
    live.AddPaper(paper);
  }
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored_or = HeavyHitters::DeserializeFrom(reader);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  const auto restored = std::move(restored_or).value();
  EXPECT_EQ(restored.num_papers(), live.num_papers());
  EXPECT_DOUBLE_EQ(restored.TotalImpactEstimate(), live.TotalImpactEstimate());
  const auto live_report = live.Report();
  const auto restored_report = restored.Report();
  ASSERT_EQ(restored_report.size(), live_report.size());
  for (std::size_t i = 0; i < live_report.size(); ++i) {
    EXPECT_EQ(restored_report[i].author, live_report[i].author);
    EXPECT_DOUBLE_EQ(restored_report[i].h_estimate,
                     live_report[i].h_estimate);
  }
}

TEST(CheckpointRoundTripTest, OneHeavyHitterContinuesIdentically) {
  // Priorities are recomputed from the ids on restore, so live and
  // restored stay byte-identical as more papers arrive.
  const TabulationHash priority(35);
  auto live = OneHeavyHitter::Create(SmallOneHhOptions()).value();
  const auto paper_of = [](std::uint64_t p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations = 1 + p % 30;
    paper.authors.PushBack(p % 5);
    return paper;
  };
  for (std::uint64_t p = 0; p < 500; ++p) {
    live.AddPaper(paper_of(p), priority(p));
  }
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored_or = OneHeavyHitter::DeserializeFrom(reader, priority);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  auto restored = std::move(restored_or).value();
  for (std::uint64_t p = 300; p < 900; ++p) {
    live.AddPaper(paper_of(p), priority(p));
    restored.AddPaper(paper_of(p), priority(p));
  }
  ByteWriter live_bytes;
  live.SerializeTo(live_bytes);
  ByteWriter restored_bytes;
  restored.SerializeTo(restored_bytes);
  EXPECT_EQ(restored_bytes.buffer(), live_bytes.buffer());
}

TEST(CheckpointRoundTripTest, ExactCashRegisterReplaysToSameState) {
  ExactCashRegisterHIndex live;
  for (std::uint64_t i = 0; i < 400; ++i) live.Update(i % 50, 1 + i % 5);
  ByteWriter writer;
  live.SerializeTo(writer);
  ByteReader reader(writer.buffer());
  auto restored_or = ExactCashRegisterHIndex::DeserializeFrom(reader);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  auto restored = std::move(restored_or).value();
  EXPECT_EQ(restored.HIndex(), live.HIndex());
  EXPECT_EQ(restored.NumPapers(), live.NumPapers());
  // The histogram was re-derived by replay: further updates must agree.
  for (std::uint64_t i = 0; i < 100; ++i) {
    live.Update(i % 60, 2);
    restored.Update(i % 60, 2);
  }
  EXPECT_EQ(restored.HIndex(), live.HIndex());
}

// --- fault injection --------------------------------------------------------

TEST(FaultInjectionTest, EveryOneByteTruncationRejected) {
  for (const CorruptionCase& c : AllCases()) {
    for (std::size_t length = 0; length < c.sealed.size(); ++length) {
      const Status status = c.decode(test::TruncateAt(c.sealed, length));
      EXPECT_FALSE(status.ok())
          << c.name << " decoded a checkpoint truncated to " << length
          << " of " << c.sealed.size() << " bytes";
    }
  }
}

TEST(FaultInjectionTest, EveryHeaderBitFlipRejected) {
  for (const CorruptionCase& c : AllCases()) {
    for (std::size_t bit = 0; bit < kEnvelopeHeaderBytes * 8; ++bit) {
      const Status status = c.decode(test::FlipBit(c.sealed, bit));
      EXPECT_FALSE(status.ok())
          << c.name << " decoded a checkpoint with header bit " << bit
          << " flipped";
    }
  }
}

TEST(FaultInjectionTest, PayloadBitFlipsCaughtByCrc) {
  // Any payload damage must be caught by the CRC before a decoder runs;
  // sample every 7th bit to keep the sweep fast.
  for (const CorruptionCase& c : AllCases()) {
    const std::size_t payload_bits =
        (c.sealed.size() - kEnvelopeHeaderBytes) * 8;
    for (std::size_t bit = 0; bit < payload_bits; bit += 7) {
      const Status status =
          c.decode(test::FlipBit(c.sealed, kEnvelopeHeaderBytes * 8 + bit));
      EXPECT_FALSE(status.ok())
          << c.name << " decoded a checkpoint with payload bit " << bit
          << " flipped";
    }
  }
}

TEST(FaultInjectionTest, TrailingGarbageRejected) {
  for (const CorruptionCase& c : AllCases()) {
    for (std::size_t extra : {std::size_t{1}, std::size_t{64}}) {
      const Status status = c.decode(test::AppendGarbage(c.sealed, extra));
      EXPECT_FALSE(status.ok())
          << c.name << " decoded a checkpoint with " << extra
          << " trailing garbage bytes";
    }
  }
}

TEST(FaultInjectionTest, DamagedServiceGridFailsTheWholeRestore) {
  // A missing, torn or bit-flipped `path.grid` fails the restore, and
  // the service keeps its own state: the registry as well as the grid.
  const std::string path = TempPath("damaged_grid");
  const std::vector<std::uint8_t> sealed = SaveSmallGridService(path);
  auto target = HImpactService::Create(SmallGridServiceOptions()).value();
  for (std::uint64_t p = 100; p < 160; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.citations = 1 + p % 9;
    paper.authors = {p % 5, 7};
    target.IngestPaper(paper);
  }
  const auto state = [&target] {
    std::string text;
    for (AuthorId user = 0; user < 10; ++user) {
      text += std::to_string(target.PointHIndex(user)) + " ";
    }
    for (const HeavyHitterReport& report : target.HeavyReport()) {
      text += std::to_string(report.author) + ":" +
              std::to_string(report.h_estimate) + " ";
    }
    const ServiceStats stats = target.Stats();
    return text + std::to_string(stats.registry.total_events) + " " +
           std::to_string(stats.hh_papers);
  };
  const std::string before = state();

  const std::string grid_path = HImpactService::GridPath(path);
  ASSERT_EQ(std::remove(grid_path.c_str()), 0);
  EXPECT_EQ(target.RestoreFrom(path).code(), StatusCode::kUnavailable);
  EXPECT_EQ(state(), before);
  const std::vector<std::vector<std::uint8_t>> damaged = {
      test::TruncateAt(sealed, sealed.size() / 2),
      test::FlipBit(sealed, sealed.size() * 4),
      test::AppendGarbage(sealed, 8)};
  for (const std::vector<std::uint8_t>& bytes : damaged) {
    ASSERT_TRUE(test::WriteFileRaw(grid_path, bytes));
    EXPECT_FALSE(target.RestoreFrom(path).ok());
    EXPECT_EQ(state(), before);
  }
  ASSERT_TRUE(test::WriteFileRaw(grid_path, sealed));
  EXPECT_TRUE(target.RestoreFrom(path).ok());
  EXPECT_NE(state(), before);
  std::remove(path.c_str());
  std::remove(grid_path.c_str());
  for (std::size_t i = 0; i < SmallGridServiceOptions().num_stripes; ++i) {
    std::remove(HImpactService::StripePath(path, i).c_str());
  }
}

// --- file layer -------------------------------------------------------------

TEST(CheckpointFileTest, WriteRestoreRoundTrip) {
  const std::string path = TempPath("roundtrip");
  auto live = ExponentialHistogramEstimator::Create(0.2, 500).value();
  for (std::uint64_t v = 1; v <= 100; ++v) live.Add(v);
  ASSERT_TRUE(
      CheckpointSketch(path, CheckpointTag::kExponentialHistogram, live).ok());
  auto restored = RestoreSketch<ExponentialHistogramEstimator>(
      path, CheckpointTag::kExponentialHistogram);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), live.Estimate());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, MissingFileIsUnavailable) {
  const auto restored = RestoreSketch<ExponentialHistogramEstimator>(
      TempPath("never_written"), CheckpointTag::kExponentialHistogram);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnavailable);
}

TEST(CheckpointFileTest, TornFileOnDiskRejected) {
  const std::string path = TempPath("torn");
  auto live = ShiftingWindowEstimator::Create(0.2).value();
  for (std::uint64_t v = 1; v <= 50; ++v) live.Add(v);
  ByteWriter writer;
  live.SerializeTo(writer);
  const auto sealed =
      SealEnvelope(CheckpointTag::kShiftingWindow, writer.buffer());
  ASSERT_TRUE(
      test::WriteFileRaw(path, test::TruncateAt(sealed, sealed.size() / 2)));
  EXPECT_FALSE(RestoreSketch<ShiftingWindowEstimator>(
                   path, CheckpointTag::kShiftingWindow)
                   .ok());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, RestoreOrFallbackDegradesToFresh) {
  const std::string path = TempPath("fallback");
  ASSERT_TRUE(test::WriteFileRaw(path, {0xde, 0xad, 0xbe, 0xef}));
  bool built_fresh = false;
  const auto [estimator, resumed] =
      RestoreOrFallback<ShiftingWindowEstimator>(
          path, CheckpointTag::kShiftingWindow,
          [&]() {
            built_fresh = true;
            return ShiftingWindowEstimator::Create(0.2).value();
          },
          nullptr);
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(built_fresh);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, RestoreOrFallbackResumesGoodCheckpoint) {
  const std::string path = TempPath("resume");
  auto live = ShiftingWindowEstimator::Create(0.2).value();
  for (std::uint64_t v = 1; v <= 80; ++v) live.Add(v);
  ASSERT_TRUE(
      CheckpointSketch(path, CheckpointTag::kShiftingWindow, live).ok());
  const auto [estimator, resumed] =
      RestoreOrFallback<ShiftingWindowEstimator>(
          path, CheckpointTag::kShiftingWindow,
          []() { return ShiftingWindowEstimator::Create(0.2).value(); },
          nullptr);
  EXPECT_TRUE(resumed);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), live.Estimate());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, AtomicWriteReplacesPreviousCheckpoint) {
  const std::string path = TempPath("replace");
  auto first = ExponentialHistogramEstimator::Create(0.2, 500).value();
  first.Add(3);
  ASSERT_TRUE(
      CheckpointSketch(path, CheckpointTag::kExponentialHistogram, first)
          .ok());
  auto second = ExponentialHistogramEstimator::Create(0.2, 500).value();
  for (std::uint64_t v = 1; v <= 60; ++v) second.Add(v);
  ASSERT_TRUE(
      CheckpointSketch(path, CheckpointTag::kExponentialHistogram, second)
          .ok());
  auto restored = RestoreSketch<ExponentialHistogramEstimator>(
      path, CheckpointTag::kExponentialHistogram);
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), second.Estimate());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, WriteToUnwritableDirectoryFails) {
  const Status status = WriteCheckpointFile(
      "/nonexistent_dir_for_himpact_tests/ck", CheckpointTag::kKll, {1, 2});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace himpact
