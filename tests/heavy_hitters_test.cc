#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "eval/metrics.h"
#include "hash/mix.h"
#include "heavy/baseline.h"
#include "heavy/heavy_hitters.h"
#include "random/rng.h"
#include "workload/academic.h"

namespace himpact {
namespace {

HeavyHitters MakeSketch(const HeavyHitters::Options& options,
                        std::uint64_t seed) {
  auto sketch = HeavyHitters::Create(options, seed);
  EXPECT_TRUE(sketch.ok());
  return std::move(sketch).value();
}

TEST(HeavyHittersTest, RejectsBadParameters) {
  HeavyHitters::Options options;
  options.eps = 0.0;
  EXPECT_FALSE(HeavyHitters::Create(options, 1).ok());
  options.eps = 0.2;
  options.delta = 0.0;
  EXPECT_FALSE(HeavyHitters::Create(options, 1).ok());
  options.delta = 0.1;
  options.detector_eps = 1.5;
  EXPECT_FALSE(HeavyHitters::Create(options, 1).ok());
  options.detector_eps = 0.0;
  options.detector_delta = 1.5;
  EXPECT_FALSE(HeavyHitters::Create(options, 1).ok());
  // The detectors' level grid must fit, whichever eps sizes it.
  options.detector_delta = 0.0;
  options.max_papers = 1u << 20;
  options.detector_eps = 1e-5;
  EXPECT_EQ(HeavyHitters::Create(options, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HeavyHittersTest, GridDimensionsMatchTheorem) {
  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.1;
  const auto sketch = MakeSketch(options, 1);
  EXPECT_EQ(sketch.num_buckets(), 32u);  // ceil(2 / 0.25^2)
  EXPECT_EQ(sketch.num_rows(), 6u);      // ceil(log2(1/(0.25*0.1)))
}

TEST(HeavyHittersTest, EmptyStreamReportsNothing) {
  HeavyHitters::Options options;
  options.eps = 0.25;
  const auto sketch = MakeSketch(options, 2);
  EXPECT_TRUE(sketch.Report().empty());
}

TEST(HeavyHittersTest, PlantedStarsRecovered) {
  Rng rng(3);
  AcademicConfig config;
  config.num_authors = 300;
  config.max_papers = 10;
  config.citation_mu = 0.5;
  config.citation_sigma = 1.0;
  const std::vector<PlantedAuthor> stars = {
      {100000, 120, 120},  // h = 120
      {100001, 90, 90},    // h = 90
  };
  const PaperStream papers = MakeAcademicCorpus(config, stars, rng);

  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.05;
  options.max_papers = 1u << 16;
  auto sketch = MakeSketch(options, 4);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);

  const auto reports = sketch.Report();
  std::vector<std::uint64_t> reported;
  for (const auto& report : reports) reported.push_back(report.author);
  EXPECT_TRUE(std::find(reported.begin(), reported.end(), 100000u) !=
              reported.end());
  EXPECT_TRUE(std::find(reported.begin(), reported.end(), 100001u) !=
              reported.end());

  // The reported h-estimates approximate the planted values.
  for (const auto& report : reports) {
    if (report.author == 100000u) {
      EXPECT_GE(report.h_estimate, 120.0 * 0.7);
      EXPECT_LE(report.h_estimate, 120.0 * 1.3);
    }
  }
}

TEST(HeavyHittersTest, ReportCapAtInverseEps) {
  Rng rng(5);
  // 30 equal mid-size authors: none is eps-heavy for eps = 0.25, and the
  // report must never exceed ceil(1/eps) = 4 entries regardless.
  PaperStream papers;
  PaperId next = 0;
  for (AuthorId a = 0; a < 30; ++a) {
    for (int p = 0; p < 20; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(a);
      paper.citations = 20;
      papers.push_back(paper);
    }
  }
  Shuffle(papers, rng);

  HeavyHitters::Options options;
  options.eps = 0.25;
  options.max_papers = 1u << 16;
  auto sketch = MakeSketch(options, 6);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);
  EXPECT_LE(sketch.Report().size(), 4u);
}

TEST(HeavyHittersTest, PrecisionAgainstExactGroundTruth) {
  // Whatever the sketch reports as top hitters should be among the
  // genuinely top authors by exact H-index.
  Rng rng(7);
  AcademicConfig config;
  config.num_authors = 200;
  config.max_papers = 8;
  const std::vector<PlantedAuthor> stars = {
      {900000, 150, 150},
  };
  const PaperStream papers = MakeAcademicCorpus(config, stars, rng);

  HeavyHitters::Options options;
  options.eps = 0.3;
  options.delta = 0.05;
  options.max_papers = 1u << 16;
  auto sketch = MakeSketch(options, 8);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);

  const auto reports = sketch.Report();
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.front().author, 900000u);
}

TEST(HeavyHittersTest, DeterministicPerSeed) {
  Rng rng(9);
  AcademicConfig config;
  config.num_authors = 100;
  const std::vector<PlantedAuthor> stars = {{55555, 80, 80}};
  const PaperStream papers = MakeAcademicCorpus(config, stars, rng);

  HeavyHitters::Options options;
  options.eps = 0.3;
  options.max_papers = 1u << 16;
  auto a = MakeSketch(options, 42);
  auto b = MakeSketch(options, 42);
  for (const PaperTuple& paper : papers) {
    a.AddPaper(paper);
    b.AddPaper(paper);
  }
  const auto ra = a.Report();
  const auto rb = b.Report();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].author, rb[i].author);
    EXPECT_DOUBLE_EQ(ra[i].h_estimate, rb[i].h_estimate);
  }
}

TEST(HeavyHittersTest, TotalImpactEstimateTracksTruth) {
  // Few authors spread over many buckets: each bucket holds at most one
  // author, so the per-row sum equals the sum of author H-indices.
  Rng rng(21);
  PaperStream papers;
  PaperId next = 0;
  std::uint64_t true_total = 0;
  for (AuthorId a = 0; a < 8; ++a) {
    const std::uint64_t h = 10 + 5 * a;
    true_total += h;
    for (std::uint64_t p = 0; p < h; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(a);
      paper.citations = h;
      papers.push_back(paper);
    }
  }
  Shuffle(papers, rng);

  HeavyHitters::Options options;
  options.eps = 0.15;
  options.max_papers = 1u << 16;
  auto sketch = MakeSketch(options, 22);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);
  EXPECT_NEAR(sketch.TotalImpactEstimate(),
              static_cast<double>(true_total),
              0.25 * static_cast<double>(true_total));
}

TEST(HeavyHittersTest, ReportHeavyFiltersSmallCandidates) {
  // One eps-heavy star plus isolated small authors: Report() may list
  // small authors (each dominates its own bucket); ReportHeavy() must
  // keep only the star.
  Rng rng(23);
  PaperStream papers;
  PaperId next = 0;
  for (std::uint64_t p = 0; p < 120; ++p) {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(999);
    paper.citations = 120;
    papers.push_back(paper);
  }
  for (AuthorId a = 0; a < 10; ++a) {
    for (int p = 0; p < 3; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(a);
      paper.citations = 3;
      papers.push_back(paper);
    }
  }
  Shuffle(papers, rng);

  HeavyHitters::Options options;
  options.eps = 0.3;
  options.max_papers = 1u << 16;
  auto sketch = MakeSketch(options, 24);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);

  const auto heavy = sketch.ReportHeavy();
  ASSERT_FALSE(heavy.empty());
  for (const HeavyHitterReport& report : heavy) {
    EXPECT_EQ(report.author, 999u);
  }
}

TEST(HeavyHittersTest, L2ReportIsMorePermissiveThanL1) {
  // ||h||_2 <= ||h||_1, so the L2 threshold is lower and the L2 report
  // is a superset of the L1 report (same candidates, weaker filter).
  Rng rng(25);
  PaperStream papers;
  PaperId next = 0;
  const auto add_author = [&](AuthorId author, std::uint64_t h) {
    for (std::uint64_t p = 0; p < h; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(author);
      paper.citations = h;
      papers.push_back(paper);
    }
  };
  add_author(1, 60);
  for (AuthorId a = 10; a < 22; ++a) add_author(a, 14);
  Shuffle(papers, rng);

  HeavyHitters::Options options;
  options.eps = 0.3;
  options.max_papers = 1u << 14;
  auto sketch = MakeSketch(options, 26);
  for (const PaperTuple& paper : papers) sketch.AddPaper(paper);

  EXPECT_LE(sketch.TotalImpactL2Estimate(),
            sketch.TotalImpactEstimate() + 1e-9);
  const auto l1 = sketch.ReportHeavy();
  const auto l2 = sketch.ReportL2Heavy();
  EXPECT_GE(l2.size(), l1.size());
  // Every L1-heavy report also appears in the L2 report.
  for (const HeavyHitterReport& report : l1) {
    bool found = false;
    for (const HeavyHitterReport& candidate : l2) {
      found |= candidate.author == report.author;
    }
    EXPECT_TRUE(found) << "author " << report.author;
  }
  // The dominant author is L2-heavy.
  ASSERT_FALSE(l2.empty());
  EXPECT_EQ(l2.front().author, 1u);
}

std::vector<std::uint8_t> Bytes(const HeavyHitters& sketch) {
  ByteWriter writer;
  sketch.SerializeTo(writer);
  return writer.Take();
}

TEST(HeavyHittersTest, GridBytesDependOnlyOnThePapersSeen) {
  // One seeded stream with exact duplicate tuples and one id under two
  // author lists, fed whole and split 1/2/3/8 ways by first-author stripe
  // (the service's rule), by paper id (ShardSet's rule) and round-robin
  // (which separates duplicates), each part shuffled, then merged.
  Rng rng(31);
  PaperStream papers;
  for (std::uint64_t p = 0; p < 3000; ++p) {
    PaperTuple paper;
    paper.paper = p;
    const std::uint64_t num_authors = 1 + rng.UniformU64(4);
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(rng.UniformU64(400));
    }
    paper.citations = 1 + rng.UniformU64(300);
    papers.push_back(paper);
  }
  for (int d = 0; d < 300; ++d) {
    papers.push_back(papers[static_cast<std::size_t>(rng.UniformU64(3000))]);
  }
  PaperTuple other_authors = papers[17];
  other_authors.authors = AuthorList{7, 8};
  papers.push_back(other_authors);
  Shuffle(papers, rng);

  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.1;
  options.max_papers = 1u << 16;
  auto whole = MakeSketch(options, 32);
  for (const PaperTuple& paper : papers) whole.AddPaper(paper);
  const std::vector<std::uint8_t> want = Bytes(whole);

  using Rule = std::size_t (*)(const PaperTuple&, std::size_t, std::size_t);
  const std::pair<const char*, Rule> rules[] = {
      {"first author",
       [](const PaperTuple& p, std::size_t, std::size_t n) {
         return static_cast<std::size_t>(SplitMix64(p.authors[0]) % n);
       }},
      {"paper id",
       [](const PaperTuple& p, std::size_t, std::size_t n) {
         return static_cast<std::size_t>(SplitMix64(p.paper) % n);
       }},
      {"round robin",
       [](const PaperTuple&, std::size_t i, std::size_t n) { return i % n; }},
  };
  for (const auto& [name, rule] : rules) {
    for (const std::size_t n : {1, 2, 3, 8}) {
      std::vector<PaperStream> parts(n);
      for (std::size_t i = 0; i < papers.size(); ++i) {
        parts[rule(papers[i], i, n)].push_back(papers[i]);
      }
      std::vector<HeavyHitters> shards;
      for (PaperStream& part : parts) {
        Shuffle(part, rng);
        shards.push_back(MakeSketch(options, 32));
        shards.back().AddPaperBatch(part);
      }
      for (std::size_t i = 1; i < n; ++i) shards[0].Merge(shards[i]);
      EXPECT_EQ(Bytes(shards[0]), want) << name << ", " << n << " ways";
    }
  }
}

TEST(HeavyHittersTest, EmptyGridAtServiceDefaultsFitsInAMebibyte) {
  // The service's grid options. Samples grow only as papers arrive, so
  // an empty grid holds its counters and hashes and no sample space.
  HeavyHitters::Options options;
  options.eps = 0.25;
  options.delta = 0.1;
  options.max_papers = 1u << 20;
  const auto sketch = MakeSketch(options, 2017);
  EXPECT_LT(sketch.EstimateSpace().bytes, std::uint64_t{1} << 20);
}

// --- Checkpoint decoder corpus ----------------------------------------------

// A small grid (3 rows x 8 buckets of detectors with s = 10), so a
// corpus over every byte and bit of its checkpoint stays fast.
HeavyHitters::Options CorpusOptions() {
  HeavyHitters::Options options;
  options.eps = 0.5;
  options.delta = 0.25;
  options.max_papers = 64;
  return options;
}

constexpr std::uint64_t kCorpusSeed = 5;

// The magic, nine words of options and counters, and the cell count.
constexpr std::size_t kGridHeaderBytes = 11 * 8;

// Decodes a whole checkpoint, as a restore does: trailing bytes are
// corruption too.
StatusOr<HeavyHitters> Decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  StatusOr<HeavyHitters> grid = HeavyHitters::DeserializeFrom(reader);
  if (grid.ok() && !reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes");
  }
  return grid;
}

TEST(HeavyHittersCodecTest, EveryTruncationAndBitFlipIsRejectedOrCanonical) {
  // Retried papers, one id under two author lists, and citations from
  // 0 to above max_papers.
  Rng rng(41);
  HeavyHitters grid = MakeSketch(CorpusOptions(), kCorpusSeed);
  for (std::uint64_t p = 0; p < 60; ++p) {
    PaperTuple paper;
    paper.paper = rng.UniformU64(45);
    const std::uint64_t num_authors = 1 + rng.UniformU64(3);
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      paper.authors.PushBack(rng.UniformU64(12));
    }
    paper.citations = rng.UniformU64(100);
    grid.AddPaper(paper);
  }
  const std::vector<std::uint8_t> bytes = Bytes(grid);
  ASSERT_TRUE(Decode(bytes).ok());

  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + n);
    EXPECT_EQ(Decode(prefix).status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << n << " bytes";
  }
  // A flipped bit either fails to decode or yields a grid that writes
  // those very bytes: the decoder accepts only what the encoder writes.
  // The magic's version digit flips to '2' or '1', earlier layouts.
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const StatusOr<HeavyHitters> decoded = Decode(flipped);
    if (decoded.ok()) {
      EXPECT_EQ(Bytes(decoded.value()), flipped) << "bit " << bit;
    } else if (bit < 2) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "bit " << bit << ": " << decoded.status().message();
    }
  }
}

TEST(HeavyHittersCodecTest, CraftedTablesAndReferencesAreRejected) {
  const HeavyHitters empty = MakeSketch(CorpusOptions(), kCorpusSeed);
  const std::vector<std::uint8_t> empty_bytes = Bytes(empty);
  const std::vector<std::uint8_t> header(
      empty_bytes.begin(), empty_bytes.begin() + kGridHeaderBytes);
  const std::size_t cells = empty.num_rows() * empty.num_buckets();
  // After the header, an empty table's count and each level's count and
  // sample size, one byte each.
  const std::size_t levels =
      (empty_bytes.size() - kGridHeaderBytes - 1) / (2 * cells);
  ASSERT_EQ(kGridHeaderBytes + 1 + 2 * cells * levels, empty_bytes.size());

  // Paper ids in the grid's priority order: the table of a grid fed
  // papers 0..11 at the top level, where each of their cells' samples
  // keeps the s = 10 smallest.
  constexpr std::size_t kIds = 12;
  HeavyHitters fed = MakeSketch(CorpusOptions(), kCorpusSeed);
  for (PaperId id = 0; id < kIds; ++id) {
    PaperTuple paper;
    paper.paper = id;
    paper.authors.PushBack(1);
    paper.citations = 1000;
    fed.AddPaper(paper);
  }
  const std::vector<std::uint8_t> fed_bytes = Bytes(fed);
  ByteReader table_reader(std::span<const std::uint8_t>(fed_bytes).subspan(
      kGridHeaderBytes));
  std::uint64_t word = 0;
  ASSERT_TRUE(table_reader.Varint(&word));
  ASSERT_EQ(word, 10u);
  std::vector<PaperId> ids(10);
  for (PaperId& id : ids) {
    ASSERT_TRUE(table_reader.Varint(&id) && table_reader.Varint(&word) &&
                table_reader.Varint(&word));
  }

  // A grid whose table holds `table` (written in that order) and whose
  // last cell's top level holds one sample: its size `size` and the
  // varints `refs` (the first index, then the gaps). Every other level is
  // empty. `table_count` overrides the table's count when set.
  struct Tuple {
    PaperId paper;
    AuthorList authors;
  };
  const auto craft = [&](const std::vector<Tuple>& table,
                         std::uint64_t size,
                         const std::vector<std::uint64_t>& refs,
                         std::optional<std::uint64_t> table_count = {}) {
    ByteWriter writer;
    writer.Bytes(header.data(), header.size());
    writer.Varint(table_count.value_or(table.size()));
    for (const Tuple& tuple : table) {
      writer.Varint(tuple.paper);
      writer.Varint(static_cast<std::uint64_t>(tuple.authors.size()));
      for (const AuthorId author : tuple.authors) writer.Varint(author);
    }
    for (std::size_t c = 0; c < cells; ++c) {
      const bool last = c + 1 == cells;
      for (std::size_t l = 0; l < levels; ++l) {
        writer.Varint(last && l + 1 == levels ? size : 0);  // level count
      }
      for (std::size_t l = 0; l + 1 < levels; ++l) writer.Varint(0);
      if (!last) {
        writer.Varint(0);
        continue;
      }
      writer.Varint(size);
      for (const std::uint64_t ref : refs) writer.Varint(ref);
    }
    return writer.Take();
  };
  const Tuple a{ids[0], AuthorList{1}};
  const Tuple b{ids[1], AuthorList{1}};
  // One id under two author lists: two tuples, the shorter list first.
  const Tuple b_two{ids[1], AuthorList{1, 2}};
  std::vector<Tuple> all;
  std::vector<std::uint64_t> all_refs = {0};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    all.push_back({ids[i], AuthorList{1}});
    if (i > 0) all_refs.push_back(1);
  }
  // The crafting itself is sound.
  const std::vector<std::uint8_t> eight_authors =
      craft({{ids[0], AuthorList{1, 2, 3, 4, 5, 6, 7, 8}}}, 1, {0});
  for (const auto& bytes :
       {craft({a, b}, 2, {0, 1}), craft({a, b, b_two}, 3, {0, 1, 1}),
        craft(all, 10, all_refs), eight_authors}) {
    const StatusOr<HeavyHitters> decoded = Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(Bytes(decoded.value()), bytes);
  }
  // A ninth author: the count is rejected before any author is read.
  std::vector<std::uint8_t> nine_authors = eight_authors;
  ASSERT_EQ(nine_authors[kGridHeaderBytes + 2], 8u);
  nine_authors[kGridHeaderBytes + 2] = 9;
  all.push_back({ids[9], AuthorList{1, 2}});  // ranked last: s + 1 tuples
  std::vector<std::uint64_t> eleven_refs = all_refs;
  eleven_refs.push_back(1);

  const std::pair<const char*, std::vector<std::uint8_t>> cases[] = {
      {"first reference out of range", craft({a, b}, 1, {2})},
      {"later reference out of range", craft({a, b}, 2, {0, 2})},
      {"table entry no sample references", craft({a, b}, 1, {0})},
      {"table out of order", craft({b, a}, 2, {0, 1})},
      {"two author lists out of order", craft({a, b_two, b}, 3, {0, 1, 1})},
      {"repeated tuple", craft({a, a}, 2, {0, 1})},
      {"references not strictly ascending", craft({a, b}, 2, {1, 0})},
      {"repeated reference", craft({a, b}, 3, {0, 0, 1})},
      {"more than s references", craft(all, 11, eleven_refs)},
      {"author count above the limit", nine_authors},
      {"table count larger than the bytes left",
       craft({a}, 1, {0}, std::uint64_t{1} << 40)},
      {"reference count larger than the bytes left",
       craft({a, b}, 8, {0, 1})},
  };
  for (const auto& [name, bytes] : cases) {
    const StatusOr<HeavyHitters> decoded = Decode(bytes);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// --- Baselines ---------------------------------------------------------------

TEST(BaselineTest, ExactAuthorHIndices) {
  PaperStream papers;
  // Author 1: papers with citations 3,3,3 -> h = 3.
  // Author 2: papers with citations 10 -> h = 1.
  PaperId next = 0;
  for (int i = 0; i < 3; ++i) {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(1);
    paper.citations = 3;
    papers.push_back(paper);
  }
  {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(2);
    paper.citations = 10;
    papers.push_back(paper);
  }
  const auto result = ExactAuthorHIndices(papers);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].author, 1u);
  EXPECT_EQ(result[0].h_index, 3u);
  EXPECT_EQ(result[1].author, 2u);
  EXPECT_EQ(result[1].h_index, 1u);
  EXPECT_EQ(TotalHImpact(papers), 4u);
}

TEST(BaselineTest, ExactHeavyHittersThreshold) {
  PaperStream papers;
  PaperId next = 0;
  const auto add_papers = [&](AuthorId author, int count,
                              std::uint64_t citations) {
    for (int i = 0; i < count; ++i) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(author);
      paper.citations = citations;
      papers.push_back(paper);
    }
  };
  add_papers(1, 50, 50);  // h = 50
  add_papers(2, 5, 5);    // h = 5
  add_papers(3, 2, 2);    // h = 2
  // total = 57; eps = 0.5 -> threshold 28.5: only author 1.
  const auto heavy = ExactHeavyHitters(papers, 0.5);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0].author, 1u);
}

TEST(BaselineTest, CountHeavyDiffersFromHIndexHeavy) {
  // The T10 scenario: author A has one mega-cited paper (count-heavy,
  // h = 1); author B has 40 papers with 40 citations (h-index-heavy).
  PaperStream papers;
  PaperId next = 0;
  {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(1);  // A
    paper.citations = 1000000;
    papers.push_back(paper);
  }
  for (int i = 0; i < 40; ++i) {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(2);  // B
    paper.citations = 40;
    papers.push_back(paper);
  }

  CountHeavyHitterBaseline count_baseline(10);
  for (const PaperTuple& paper : papers) count_baseline.AddPaper(paper);
  const auto top_by_count = count_baseline.Top(1);
  ASSERT_EQ(top_by_count.size(), 1u);
  EXPECT_EQ(top_by_count[0].key, 1u);  // A wins on counts

  const auto by_h = ExactAuthorHIndices(papers);
  EXPECT_EQ(by_h[0].author, 2u);  // B wins on H-index
  EXPECT_EQ(by_h[0].h_index, 40u);
}

TEST(MetricsTest, CompareSets) {
  const SetQuality q = CompareSets({1, 2, 3}, {2, 3, 4});
  EXPECT_NEAR(q.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(q.recall, 2.0 / 3.0, 1e-12);
  const SetQuality empty = CompareSets({}, {});
  EXPECT_DOUBLE_EQ(empty.precision, 1.0);
  EXPECT_DOUBLE_EQ(empty.recall, 1.0);
}

}  // namespace
}  // namespace himpact
