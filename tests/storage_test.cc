// Out-of-core cold-tier storage primitives (src/storage/): the ZRLE
// block codec and FNV-1a content hash, sealed segment files (layout,
// CRC armor, lazy block validation, intra-file dedup), the per-stripe
// SegmentStore (pending buffer, seal, reopen, LRU cache, fault
// degradation). docs/CHECKPOINTS.md documents the formats these tests pin down.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "random/rng.h"
#include "storage/codec.h"
#include "storage/segment.h"
#include "storage/segment_store.h"

namespace himpact {
namespace {

// A scratch path unique to this process (tests may run in parallel).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "storage_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

class StorageTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- ZRLE codec -------------------------------------------------------------

TEST_F(StorageTest, ZrleRoundTripsRepresentativeShapes) {
  const std::vector<std::vector<std::uint8_t>> cases = {
      {},                                   // empty
      Bytes({0, 0, 0, 0, 0, 0, 0, 0}),      // all zeros
      Bytes({1, 2, 3, 4, 5}),               // no zeros
      Bytes({7, 0, 0, 0, 0, 0, 9}),         // interior run
      Bytes({0, 0, 0, 0, 0, 0, 42}),        // leading run
      Bytes({42, 0, 0, 0, 0, 0}),           // trailing run
      Bytes({1, 0, 0, 0, 2}),               // run below kZrleMinRun
      std::vector<std::uint8_t>(300, 0),    // run needing a 2-byte varint
  };
  for (const auto& raw : cases) {
    const std::vector<std::uint8_t> encoded = ZrleEncode(raw);
    StatusOr<std::vector<std::uint8_t>> decoded =
        ZrleDecode(encoded.data(), encoded.size(), raw.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), raw);
  }
}

TEST_F(StorageTest, ZrleCompressesSketchShapedInput) {
  // The motivating shape: small counters in fixed 64-bit LE slots, i.e.
  // one low byte followed by seven zeros, repeated.
  std::vector<std::uint8_t> raw;
  for (int i = 0; i < 512; ++i) {
    raw.push_back(static_cast<std::uint8_t>(i % 200 + 1));
    raw.insert(raw.end(), 7, 0);
  }
  const std::vector<std::uint8_t> encoded = ZrleEncode(raw);
  EXPECT_LT(encoded.size() * 2, raw.size())
      << "counter-slot input must compress at least 2x";
  StatusOr<std::vector<std::uint8_t>> decoded =
      ZrleDecode(encoded.data(), encoded.size(), raw.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), raw);
}

TEST_F(StorageTest, ZrleRoundTripsRandomBuffers) {
  Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> raw(rng.UniformU64(2048));
    for (auto& byte : raw) {
      // Bias toward zeros so runs of every length appear.
      const std::uint64_t roll = rng.UniformU64(4);
      byte = roll == 0 ? static_cast<std::uint8_t>(rng.UniformU64(256)) : 0;
    }
    const std::vector<std::uint8_t> encoded = ZrleEncode(raw);
    StatusOr<std::vector<std::uint8_t>> decoded =
        ZrleDecode(encoded.data(), encoded.size(), raw.size());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value(), raw);
  }
}

TEST_F(StorageTest, ZrleDecodeRejectsDamage) {
  const std::vector<std::uint8_t> raw = Bytes({1, 0, 0, 0, 0, 0, 2, 3});
  const std::vector<std::uint8_t> encoded = ZrleEncode(raw);

  // Truncated encoding.
  EXPECT_FALSE(ZrleDecode(encoded.data(), encoded.size() - 1, raw.size()).ok());
  // Wrong expected length, both directions.
  EXPECT_FALSE(ZrleDecode(encoded.data(), encoded.size(), raw.size() - 1).ok());
  EXPECT_FALSE(ZrleDecode(encoded.data(), encoded.size(), raw.size() + 1).ok());
  // A bare unterminated varint.
  const std::vector<std::uint8_t> dangling = {0x80};
  EXPECT_FALSE(ZrleDecode(dangling.data(), dangling.size(), 1).ok());
}

TEST_F(StorageTest, Fnv1a64IsDeterministicAndSeparates) {
  const std::vector<std::uint8_t> a = Bytes({1, 2, 3});
  const std::vector<std::uint8_t> b = Bytes({1, 2, 4});
  EXPECT_EQ(Fnv1a64(a), Fnv1a64(a.data(), a.size()));
  EXPECT_NE(Fnv1a64(a), Fnv1a64(b));
  // The canonical FNV-1a offset basis for the empty input.
  EXPECT_EQ(Fnv1a64(nullptr, 0), 14695981039346656037ull);
}

// --- sealed segments --------------------------------------------------------

std::vector<std::uint8_t> RecordPayload(std::uint64_t id, std::size_t len) {
  std::vector<std::uint8_t> payload(len);
  for (std::size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<std::uint8_t>((id * 31 + i) % 251);
  }
  return payload;
}

TEST_F(StorageTest, SegmentRoundTripsRecordsInMemoryAndOnDisk) {
  SegmentWriter writer(/*stripe=*/3, /*generation=*/9, /*block_bytes=*/128);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    writer.Add(id, RecordPayload(id, 20 + id % 30));
  }
  EXPECT_EQ(writer.num_records(), 40u);
  const std::vector<std::uint8_t> image = std::move(writer).Seal();

  // In-memory open.
  StatusOr<SegmentReader> from_bytes = SegmentReader::FromBytes(image);
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().message();
  EXPECT_EQ(from_bytes.value().stripe(), 3u);
  EXPECT_EQ(from_bytes.value().generation(), 9u);
  EXPECT_EQ(from_bytes.value().records().size(), 40u);
  EXPECT_GT(from_bytes.value().blocks().size(), 1u)
      << "a 128-byte block cut must split 40 records across blocks";

  // mmap open of the same image.
  const std::string path = TempPath("seg_roundtrip");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  StatusOr<SegmentReader> mapped = SegmentReader::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ(mapped.value().file_bytes(), image.size());

  for (std::uint64_t id = 1; id <= 40; ++id) {
    ASSERT_NE(mapped.value().Find(id), nullptr);
    StatusOr<std::vector<std::uint8_t>> record = mapped.value().ReadRecord(id);
    ASSERT_TRUE(record.ok()) << record.status().message();
    EXPECT_EQ(record.value(), RecordPayload(id, 20 + id % 30));
  }
  EXPECT_EQ(mapped.value().Find(41), nullptr);
  EXPECT_EQ(mapped.value().ReadRecord(41).status().code(),
            StatusCode::kUnavailable);
  std::remove(path.c_str());
}

TEST_F(StorageTest, SegmentKeepsTheLatestDuplicateRecord) {
  SegmentWriter writer(0, 1);
  writer.Add(7, Bytes({1, 1, 1}));
  writer.Add(7, Bytes({2, 2}));
  EXPECT_EQ(writer.num_records(), 1u);
  StatusOr<SegmentReader> reader =
      SegmentReader::FromBytes(std::move(writer).Seal());
  ASSERT_TRUE(reader.ok());
  StatusOr<std::vector<std::uint8_t>> record = reader.value().ReadRecord(7);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value(), Bytes({2, 2}));
}

TEST_F(StorageTest, SegmentDedupsIdenticalRawBlocks) {
  // Two single-record blocks with identical raw bytes: the block table
  // must alias one data range instead of storing it twice.
  const std::vector<std::uint8_t> payload(64, 0xAB);
  SegmentWriter duplicated(0, 1, /*block_bytes=*/64);
  duplicated.Add(1, payload);
  duplicated.Add(2, payload);
  SegmentWriter distinct(0, 1, /*block_bytes=*/64);
  distinct.Add(1, payload);
  distinct.Add(2, RecordPayload(2, 64));
  const std::vector<std::uint8_t> dup_image = std::move(duplicated).Seal();
  const std::vector<std::uint8_t> dis_image = std::move(distinct).Seal();
  EXPECT_LT(dup_image.size(), dis_image.size());

  StatusOr<SegmentReader> reader = SegmentReader::FromBytes(dup_image);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader.value().blocks().size(), 2u);
  EXPECT_EQ(reader.value().blocks()[0].data_offset,
            reader.value().blocks()[1].data_offset)
      << "identical raw blocks must share one data range";
  for (std::uint64_t id : {1ull, 2ull}) {
    StatusOr<std::vector<std::uint8_t>> record = reader.value().ReadRecord(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value(), payload);
  }
}

TEST_F(StorageTest, SegmentRejectsStructuralDamageUpFront) {
  SegmentWriter writer(2, 5);
  for (std::uint64_t id = 0; id < 8; ++id) writer.Add(id, RecordPayload(id, 40));
  const std::vector<std::uint8_t> image = std::move(writer).Seal();

  // Truncation at every region boundary-ish cut.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> cut(image.begin(),
                                  image.begin() + static_cast<long>(keep));
    EXPECT_FALSE(SegmentReader::FromBytes(std::move(cut)).ok())
        << "truncation to " << keep << " bytes must be rejected";
  }

  // A flipped bit in the tables (tail, before the footer) breaks the
  // footer CRC.
  std::vector<std::uint8_t> flipped_table = image;
  flipped_table[image.size() - 20] ^= 0x01;
  EXPECT_FALSE(SegmentReader::FromBytes(std::move(flipped_table)).ok());

  // A corrupted header magic.
  std::vector<std::uint8_t> flipped_magic = image;
  flipped_magic[0] ^= 0xFF;
  EXPECT_FALSE(SegmentReader::FromBytes(std::move(flipped_magic)).ok());

  // Trailing garbage changes total_len's position: rejected.
  std::vector<std::uint8_t> padded = image;
  padded.push_back(0);
  EXPECT_FALSE(SegmentReader::FromBytes(std::move(padded)).ok());

  // A missing file is kUnavailable (distinct from structural damage).
  EXPECT_EQ(SegmentReader::Open(TempPath("no_such_segment")).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(StorageTest, SegmentBlockCorruptionIsCaughtLazilyOnPageIn) {
  SegmentWriter writer(0, 1, /*block_bytes=*/64);
  writer.Add(1, RecordPayload(1, 60));
  writer.Add(2, RecordPayload(2, 60));
  std::vector<std::uint8_t> image = std::move(writer).Seal();

  // Flip one byte inside the first block's compressed payload. The
  // tables still parse (footer CRC covers header + tables only), so the
  // open succeeds — the damage surfaces on the first ReadBlock.
  StatusOr<SegmentReader> clean = SegmentReader::FromBytes(image);
  ASSERT_TRUE(clean.ok());
  ASSERT_GE(clean.value().blocks().size(), 2u);
  const std::size_t victim =
      static_cast<std::size_t>(clean.value().blocks()[0].data_offset);
  image[victim] ^= 0x40;

  StatusOr<SegmentReader> damaged = SegmentReader::FromBytes(std::move(image));
  ASSERT_TRUE(damaged.ok()) << "block damage must not fail the open";
  EXPECT_FALSE(damaged.value().ReadBlock(0).ok());
  EXPECT_FALSE(damaged.value().ReadRecord(1).ok());
  // The undamaged block still pages in.
  EXPECT_TRUE(damaged.value().ReadRecord(2).ok());
}

// --- SegmentStore -----------------------------------------------------------

SegmentStoreOptions SmallStoreOptions(const std::string& dir,
                                      std::uint64_t stripe = 0) {
  SegmentStoreOptions options;
  options.dir = dir;
  options.stripe = stripe;
  options.seal_threshold_bytes = 512;  // seal early so tests hit segments
  options.block_bytes = 256;
  return options;
}

TEST_F(StorageTest, StoreServesPendingSealedAndReopenedRecords) {
  const std::string dir = TempPath("store_basic");
  RemoveTree(dir);
  {
    auto store_or = SegmentStore::Open(SmallStoreOptions(dir));
    ASSERT_TRUE(store_or.ok()) << store_or.status().message();
    std::unique_ptr<SegmentStore> store = std::move(store_or).value();

    // Below the threshold: served from the pending buffer, no files.
    store->Put(1, RecordPayload(1, 100));
    EXPECT_EQ(store->segment_files(), 0u);
    EXPECT_TRUE(store->Contains(1));
    StatusOr<std::vector<std::uint8_t>> pending = store->Get(1);
    ASSERT_TRUE(pending.ok());
    EXPECT_EQ(pending.value(), RecordPayload(1, 100));

    // Crossing the threshold seals a segment.
    for (std::uint64_t id = 2; id <= 12; ++id) {
      store->Put(id, RecordPayload(id, 100));
    }
    EXPECT_GE(store->segment_files(), 1u);
    EXPECT_GE(store->counters().seals, 1u);
    EXPECT_GT(store->segment_bytes(), 0u);

    // Newest wins across the pending/sealed boundary.
    store->Put(3, Bytes({9, 9, 9}));
    StatusOr<std::vector<std::uint8_t>> newest = store->Get(3);
    ASSERT_TRUE(newest.ok());
    EXPECT_EQ(newest.value(), Bytes({9, 9, 9}));

    // Forget drops the record.
    store->Forget(5);
    EXPECT_FALSE(store->Contains(5));
    EXPECT_EQ(store->Get(5).status().code(), StatusCode::kUnavailable);

    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->pending_records(), 0u);
  }

  // Reopen: sealed generations are adopted, newest record still wins.
  auto reopened_or = SegmentStore::Open(SmallStoreOptions(dir));
  ASSERT_TRUE(reopened_or.ok());
  std::unique_ptr<SegmentStore> reopened = std::move(reopened_or).value();
  EXPECT_GE(reopened->segment_files(), 1u);
  StatusOr<std::vector<std::uint8_t>> readback = reopened->Get(3);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), Bytes({9, 9, 9}));
  readback = reopened->Get(7);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), RecordPayload(7, 100));
  // The forgotten record's bytes may still sit in old generations, but
  // Forget removed it from the reachable index of the writing store;
  // after a blind rescan the newest on-disk copy is visible again —
  // which is why the registry Forgets only after paging state back in.
  RemoveTree(dir);
}

TEST_F(StorageTest, StoresShareADirectoryWithoutCrossTalk) {
  const std::string dir = TempPath("store_shared");
  RemoveTree(dir);
  auto a_or = SegmentStore::Open(SmallStoreOptions(dir, 0));
  auto b_or = SegmentStore::Open(SmallStoreOptions(dir, 1));
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  std::unique_ptr<SegmentStore> a = std::move(a_or).value();
  std::unique_ptr<SegmentStore> b = std::move(b_or).value();
  for (std::uint64_t id = 1; id <= 10; ++id) {
    a->Put(id, Bytes({1}));
    b->Put(id, Bytes({2}));
  }
  ASSERT_TRUE(a->Flush().ok());
  ASSERT_TRUE(b->Flush().ok());

  // Reopen each stripe: only its own files are adopted.
  auto a2_or = SegmentStore::Open(SmallStoreOptions(dir, 0));
  ASSERT_TRUE(a2_or.ok());
  StatusOr<std::vector<std::uint8_t>> record = a2_or.value()->Get(4);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value(), Bytes({1}));
  RemoveTree(dir);
}

TEST_F(StorageTest, StoreCountsPageInsAndPendingHits) {
  const std::string dir = TempPath("store_counters");
  RemoveTree(dir);
  auto store_or = SegmentStore::Open(SmallStoreOptions(dir));
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(store_or).value();
  for (std::uint64_t id = 1; id <= 8; ++id) {
    store->Put(id, RecordPayload(id, 100));
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_EQ(store->pending_records(), 0u);

  // Every get of a sealed record reads its block, even a neighbor of
  // the record just read (there is no block cache).
  const std::uint64_t before_pages = store->counters().page_ins;
  ASSERT_TRUE(store->Get(1).ok());
  ASSERT_TRUE(store->Get(2).ok());
  EXPECT_EQ(store->counters().page_ins, before_pages + 2);

  // A pending record is served from RAM and counted as a cache hit.
  store->Put(9, RecordPayload(9, 10));
  const std::uint64_t hits_before = store->counters().cache_hits;
  ASSERT_TRUE(store->Get(9).ok());
  EXPECT_EQ(store->counters().cache_hits, hits_before + 1);
  EXPECT_EQ(store->counters().page_ins, before_pages + 2);

  // A get that finds no record counts exactly one failed page-in.
  const std::uint64_t failures_before = store->counters().page_in_failures;
  EXPECT_EQ(store->Get(99).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store->counters().page_in_failures, failures_before + 1);
  RemoveTree(dir);
}

TEST_F(StorageTest, StoreReadsGenerationsSealedAtDifferentBlockSizes) {
  // Block size is a writer choice, not part of the format: a directory
  // holding generations cut at 64 KiB and 4 KiB (older defaults, sized
  // for ~1.3 KB fixed-width records) and at the current default (sized
  // for ~100 B sparse records) reads back byte-identical, and the newest
  // copy of a record wins across the sizes.
  const std::string dir = TempPath("store_mixed_blocks");
  RemoveTree(dir);
  struct Generation {
    std::size_t block_bytes;
    std::size_t record_len;
    std::uint64_t first_id;
    std::uint64_t stride;
  };
  // The first generation writes ids 1..120; the later ones overwrite
  // every third, then every fifth, and add ids the first never held.
  const Generation generations[] = {{64u << 10, 1300, 1, 1},
                                    {4u << 10, 1300, 3, 3},
                                    {kSegmentBlockBytes, 100, 5, 5}};
  std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
  std::uint64_t round = 0;
  for (const Generation& generation : generations) {
    SegmentStoreOptions options = SmallStoreOptions(dir);
    options.seal_threshold_bytes = 1u << 30;  // seal only on Flush
    options.block_bytes = generation.block_bytes;
    auto store_or = SegmentStore::Open(options);
    ASSERT_TRUE(store_or.ok());
    std::unique_ptr<SegmentStore> store = std::move(store_or).value();
    const std::uint64_t last_id = round == 0 ? 120 : 160;
    for (std::uint64_t id = generation.first_id; id <= last_id;
         id += generation.stride) {
      expected[id] = RecordPayload(id * 1000 + round, generation.record_len);
      store->Put(id, expected[id]);
    }
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->segment_files(), ++round);
  }

  auto reopened_or = SegmentStore::Open(SmallStoreOptions(dir));
  ASSERT_TRUE(reopened_or.ok());
  std::unique_ptr<SegmentStore> reopened = std::move(reopened_or).value();
  ASSERT_EQ(reopened->segment_files(), 3u);
  EXPECT_EQ(reopened->num_records(), expected.size());
  for (const auto& [id, bytes] : expected) {
    StatusOr<std::vector<std::uint8_t>> readback = reopened->Get(id);
    ASSERT_TRUE(readback.ok()) << "id " << id;
    EXPECT_EQ(readback.value(), bytes) << "id " << id;
  }
  EXPECT_EQ(reopened->counters().page_in_failures, 0u);

  // Each generation's blocks hold several records and stay within its
  // own cut, above the next smaller one.
  for (std::size_t g = 0; g < std::size(generations); ++g) {
    auto reader = SegmentReader::Open(dir + "/stripe-0-gen-" +
                                      std::to_string(g + 1) + ".seg");
    ASSERT_TRUE(reader.ok());
    std::uint32_t max_raw = 0;
    for (const SegmentBlockMeta& meta : reader.value().blocks()) {
      max_raw = std::max(max_raw, meta.raw_len);
    }
    const std::size_t smaller_cut =
        g + 1 < std::size(generations) ? generations[g + 1].block_bytes : 0;
    EXPECT_GT(max_raw, smaller_cut) << "generation " << g + 1;
    EXPECT_LE(max_raw, generations[g].block_bytes) << "generation " << g + 1;
    EXPECT_GE(max_raw, 2 * generations[g].record_len) << "generation " << g + 1;
  }
  RemoveTree(dir);
}

TEST_F(StorageTest, StoreDegradesUnderSegmentMapFailFault) {
  const std::string dir = TempPath("store_mapfail");
  RemoveTree(dir);
  auto store_or = SegmentStore::Open(SmallStoreOptions(dir));
  ASSERT_TRUE(store_or.ok());
  std::unique_ptr<SegmentStore> store = std::move(store_or).value();
  for (std::uint64_t id = 1; id <= 8; ++id) {
    store->Put(id, RecordPayload(id, 100));
  }
  ASSERT_TRUE(store->Flush().ok());

  // Every page-in fails while armed: kInternal, counted, no crash.
  FaultRegistry::Global().Arm(FaultPoint::kSegmentMapFail, FaultSpec{});
  StatusOr<std::vector<std::uint8_t>> failed = store->Get(1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_GE(store->counters().page_in_failures, 1u);

  // Disarm: the same record pages in fine (nothing was corrupted).
  FaultRegistry::Global().Reset();
  StatusOr<std::vector<std::uint8_t>> recovered = store->Get(1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), RecordPayload(1, 100));
  RemoveTree(dir);
}

TEST_F(StorageTest, StoreReopenSkipsACorruptSegmentAndCounts) {
  const std::string dir = TempPath("store_corrupt");
  RemoveTree(dir);
  {
    auto store_or = SegmentStore::Open(SmallStoreOptions(dir));
    ASSERT_TRUE(store_or.ok());
    std::unique_ptr<SegmentStore> store = std::move(store_or).value();
    for (std::uint64_t id = 1; id <= 8; ++id) {
      store->Put(id, RecordPayload(id, 100));
    }
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_GE(store->segment_files(), 1u);
  }

  // Truncate every sealed file: reopen must adopt nothing, count the
  // damage, and still come up (records degrade to floors upstream).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(entry.path(), 10);
  }
  auto reopened_or = SegmentStore::Open(SmallStoreOptions(dir));
  ASSERT_TRUE(reopened_or.ok())
      << "corrupt segments must be skipped, not fatal";
  EXPECT_EQ(reopened_or.value()->segment_files(), 0u);
  EXPECT_GE(reopened_or.value()->counters().corrupt_segments, 1u);
  EXPECT_EQ(reopened_or.value()->Get(1).status().code(),
            StatusCode::kUnavailable);
  RemoveTree(dir);
}

}  // namespace
}  // namespace himpact
