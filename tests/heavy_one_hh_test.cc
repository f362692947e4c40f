#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/math_util.h"
#include "hash/tabulation.h"
#include "heavy/one_heavy_hitter.h"
#include "random/rng.h"
#include "workload/academic.h"

namespace himpact {
namespace {

// A detector with the seeded hash that prioritizes its papers (in
// Algorithm 8 the grid owns that hash; standalone, the caller does).
struct Detector {
  OneHeavyHitter sketch;
  TabulationHash priority;

  void AddPaper(const PaperTuple& paper) {
    sketch.AddPaper(paper, priority(paper.paper));
  }
  std::optional<OneHeavyHitterResult> Detect() const {
    return sketch.Detect();
  }
  double StreamHEstimate() const { return sketch.StreamHEstimate(); }
  std::uint64_t num_papers() const { return sketch.num_papers(); }
  std::size_t sample_size() const { return sketch.sample_size(); }
};

Detector MakeDetector(double eps, double delta, std::uint64_t max_papers,
                      std::uint64_t seed) {
  OneHeavyHitter::Options options;
  options.eps = eps;
  options.delta = delta;
  options.max_papers = max_papers;
  auto detector = OneHeavyHitter::Create(options);
  EXPECT_TRUE(detector.ok());
  return Detector{std::move(detector).value(), TabulationHash(seed)};
}

std::vector<std::uint8_t> Bytes(const OneHeavyHitter& detector) {
  ByteWriter writer;
  detector.SerializeTo(writer);
  return writer.Take();
}

// The counters and sample sizes of a detector, read back from its
// checkpoint: five header words, num_papers, the paper table (a count,
// then each tuple's id, author count and authors), then each level's
// count and each level's sample (a size, then that many indices), all
// after the header as varints.
struct DetectorState {
  std::uint64_t num_papers = 0;
  std::uint64_t tuples = 0;
  std::vector<std::uint64_t> buckets;
  std::vector<std::uint64_t> sample_sizes;
};

DetectorState ReadState(const OneHeavyHitter& detector) {
  const std::vector<std::uint8_t> bytes = Bytes(detector);
  ByteReader reader(bytes);
  DetectorState state;
  std::uint64_t word = 0;
  for (int w = 0; w < 5; ++w) EXPECT_TRUE(reader.U64(&word));
  EXPECT_TRUE(reader.U64(&state.num_papers));
  EXPECT_TRUE(reader.Varint(&state.tuples));
  for (std::uint64_t t = 0; t < state.tuples; ++t) {
    std::uint64_t num_authors = 0;
    EXPECT_TRUE(reader.Varint(&word) && reader.Varint(&num_authors));
    for (std::uint64_t a = 0; a < num_authors; ++a) {
      EXPECT_TRUE(reader.Varint(&word));
    }
  }
  // The top level is where the largest count lands.
  const int levels = detector.LevelOf(~std::uint64_t{0}) + 1;
  state.buckets.resize(static_cast<std::size_t>(levels));
  for (std::uint64_t& bucket : state.buckets) {
    EXPECT_TRUE(reader.Varint(&bucket));
  }
  for (int level = 0; level < levels; ++level) {
    std::uint64_t size = 0;
    EXPECT_TRUE(reader.Varint(&size));
    state.sample_sizes.push_back(size);
    for (std::uint64_t e = 0; e < size; ++e) {
      EXPECT_TRUE(reader.Varint(&word));
    }
  }
  EXPECT_TRUE(reader.AtEnd());
  return state;
}

PaperStream SingleAuthorPapers(AuthorId author, std::uint64_t num_papers,
                               std::uint64_t citations, PaperId first_id = 0) {
  PaperStream papers;
  for (std::uint64_t p = 0; p < num_papers; ++p) {
    PaperTuple paper;
    paper.paper = first_id + p;
    paper.authors.PushBack(author);
    paper.citations = citations;
    papers.push_back(paper);
  }
  return papers;
}

TEST(OneHeavyHitterTest, RejectsBadParameters) {
  OneHeavyHitter::Options options;
  options.eps = 0.0;
  EXPECT_FALSE(OneHeavyHitter::Create(options).ok());
  options.eps = 0.1;
  options.delta = 1.0;
  EXPECT_FALSE(OneHeavyHitter::Create(options).ok());
  options.delta = 0.1;
  options.max_papers = 1;
  EXPECT_FALSE(OneHeavyHitter::Create(options).ok());
  // A level grid past kMaxGeometricLevels (~1.39M levels here) is refused,
  // not built or aborted on.
  options.max_papers = 1u << 20;
  options.eps = 1e-5;
  EXPECT_EQ(OneHeavyHitter::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OneHeavyHitterTest, EmptyStreamDetectsNothing) {
  const auto detector = MakeDetector(0.2, 0.1, 1000, 1);
  EXPECT_FALSE(detector.Detect().has_value());
  EXPECT_DOUBLE_EQ(detector.StreamHEstimate(), 0.0);
}

TEST(OneHeavyHitterTest, SingleAuthorDetected) {
  auto detector = MakeDetector(0.2, 0.05, 1u << 16, 2);
  for (const PaperTuple& paper : SingleAuthorPapers(42, 100, 100)) {
    detector.AddPaper(paper);
  }
  const auto result = detector.Detect();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->author, 42u);
  // h(42) = 100; the estimate is (1-eps)-approximate.
  EXPECT_LE(result->h_estimate, 100.0);
  EXPECT_GE(result->h_estimate, 80.0);
}

TEST(OneHeavyHitterTest, DominantAuthorAmongNoiseDetected) {
  Rng rng(3);
  auto detector = MakeDetector(0.3, 0.05, 1u << 16, 3);
  // Star: 200 papers with 200 citations each (h = 200). Noise: 50 authors
  // with 2 papers of 2 citations (h = 2 each; total noise impact 100,
  // but crucially their papers rarely reach the star's threshold).
  PaperStream papers = SingleAuthorPapers(7, 200, 200);
  PaperId next = 1000;
  for (AuthorId noise = 100; noise < 150; ++noise) {
    for (int p = 0; p < 2; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(noise);
      paper.citations = 2;
      papers.push_back(paper);
    }
  }
  Shuffle(papers, rng);
  for (const PaperTuple& paper : papers) detector.AddPaper(paper);

  const auto result = detector.Detect();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->author, 7u);
}

TEST(OneHeavyHitterTest, BalancedAuthorsRejected) {
  // Two equal authors: neither has h(a) >= (1-eps) h*(S), so the
  // detector must FAIL (the "noisy heavy hitters" case).
  Rng rng(4);
  auto detector = MakeDetector(0.2, 0.05, 1u << 16, 4);
  PaperStream papers = SingleAuthorPapers(1, 100, 100, 0);
  const PaperStream second = SingleAuthorPapers(2, 100, 100, 500);
  papers.insert(papers.end(), second.begin(), second.end());
  Shuffle(papers, rng);
  for (const PaperTuple& paper : papers) detector.AddPaper(paper);
  EXPECT_FALSE(detector.Detect().has_value());
}

TEST(OneHeavyHitterTest, ManySmallAuthorsRejected) {
  // A fully noisy stream: 100 authors, one paper each.
  auto detector = MakeDetector(0.2, 0.05, 1u << 16, 5);
  for (AuthorId a = 0; a < 100; ++a) {
    PaperTuple paper;
    paper.paper = a;
    paper.authors.PushBack(a);
    paper.citations = 50;
    detector.AddPaper(paper);
  }
  EXPECT_FALSE(detector.Detect().has_value());
}

TEST(OneHeavyHitterTest, StreamHEstimateTracksCombinedH) {
  // The histogram estimates the H-index of the bucket's paper multiset.
  auto detector = MakeDetector(0.1, 0.05, 1u << 16, 6);
  for (const PaperTuple& paper : SingleAuthorPapers(9, 64, 64)) {
    detector.AddPaper(paper);
  }
  EXPECT_LE(detector.StreamHEstimate(), 64.0);
  EXPECT_GE(detector.StreamHEstimate(), (1.0 - 0.1) * 64.0);
}

TEST(OneHeavyHitterTest, CoauthoredPapersCreditBothAuthors) {
  auto detector = MakeDetector(0.2, 0.05, 1u << 16, 7);
  for (std::uint64_t p = 0; p < 50; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.authors.PushBack(11);
    paper.authors.PushBack(22);
    paper.citations = 50;
    detector.AddPaper(paper);
  }
  // Both authors dominate every sample; one of them must be returned.
  const auto result = detector.Detect();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->author == 11 || result->author == 22);
}

TEST(OneHeavyHitterTest, SampleSizeMatchesFormula) {
  const auto detector = MakeDetector(0.2, 0.05, 1u << 20, 8);
  // s = 2 log2(log2(n)/delta) = 2 log2(20/0.05) ~ 17.3 -> 18.
  EXPECT_EQ(detector.sample_size(), 18u);
}

// Property sweep: detection of a dominant star and rejection of a
// balanced pair, across (eps, delta) configurations.
class OneHhParamSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(OneHhParamSweep, DetectsStarRejectsBalanced) {
  const auto [eps, delta] = GetParam();
  const std::uint64_t seed =
      static_cast<std::uint64_t>(eps * 1000 + delta * 100000);
  Rng rng(seed);

  // Star scenario.
  {
    auto detector = MakeDetector(eps, delta, 1u << 16, seed + 1);
    PaperStream papers = SingleAuthorPapers(9, 120, 120);
    for (AuthorId noise = 50; noise < 70; ++noise) {
      PaperTuple paper;
      paper.paper = 10000 + noise;
      paper.authors.PushBack(noise);
      paper.citations = 2;
      papers.push_back(paper);
    }
    Shuffle(papers, rng);
    for (const PaperTuple& paper : papers) detector.AddPaper(paper);
    const auto result = detector.Detect();
    ASSERT_TRUE(result.has_value()) << "eps=" << eps << " delta=" << delta;
    EXPECT_EQ(result->author, 9u);
    EXPECT_GE(result->h_estimate, (1.0 - eps) * 120.0 - 1e-9);
    EXPECT_LE(result->h_estimate, 120.0 + 1e-9);
  }

  // Balanced scenario (must reject).
  {
    auto detector = MakeDetector(eps, delta, 1u << 16, seed + 2);
    PaperStream papers = SingleAuthorPapers(1, 80, 80, 0);
    const PaperStream second = SingleAuthorPapers(2, 80, 80, 400);
    papers.insert(papers.end(), second.begin(), second.end());
    Shuffle(papers, rng);
    for (const PaperTuple& paper : papers) detector.AddPaper(paper);
    EXPECT_FALSE(detector.Detect().has_value())
        << "eps=" << eps << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsDelta, OneHhParamSweep,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.3),
                       ::testing::Values(0.01, 0.05, 0.2)));

TEST(OneHeavyHitterTest, ZeroCitationPapersIgnored) {
  auto detector = MakeDetector(0.2, 0.05, 1000, 9);
  for (std::uint64_t p = 0; p < 20; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.authors.PushBack(3);
    paper.citations = 0;
    detector.AddPaper(paper);
  }
  EXPECT_FALSE(detector.Detect().has_value());
  EXPECT_EQ(detector.num_papers(), 20u);
  // Counted, but no level's counter or sample is touched.
  EXPECT_EQ(detector.sketch.LevelOf(0), -1);
  const DetectorState state = ReadState(detector.sketch);
  for (std::size_t i = 0; i < state.buckets.size(); ++i) {
    EXPECT_EQ(state.buckets[i], 0u) << "level " << i;
    EXPECT_EQ(state.sample_sizes[i], 0u) << "level " << i;
  }
}

TEST(OneHeavyHitterTest, SampleIsASetOfPaperAuthorEntries) {
  // A retried paper is turned away; the same id under another author
  // list is a second entry, and a second stored tuple.
  auto detector = MakeDetector(0.5, 0.05, 64, 10);
  PaperTuple paper;
  paper.paper = 77;
  paper.authors = AuthorList{5};
  paper.citations = 1;
  PaperTuple coauthored = paper;
  coauthored.authors = AuthorList{5, 6};
  for (const PaperTuple& tuple : {paper, paper, coauthored, coauthored}) {
    detector.AddPaper(tuple);
  }
  const DetectorState state = ReadState(detector.sketch);
  EXPECT_EQ(state.num_papers, 4u);
  EXPECT_EQ(state.buckets[0], 4u);
  EXPECT_EQ(state.sample_sizes[0], 2u);
  EXPECT_EQ(state.tuples, 2u);
}

TEST(OneHeavyHitterTest, MergeEqualsOneDetectorFedBothStreams) {
  // Samples are bottom-s under one priority hash, so a merge is exact:
  // byte-identical to the whole stream, in either merge order.
  Rng rng(11);
  PaperStream papers;
  for (std::uint64_t p = 0; p < 600; ++p) {
    PaperTuple paper;
    paper.paper = p;
    paper.authors.PushBack(rng.UniformU64(5));
    paper.citations = 1 + rng.UniformU64(200);
    papers.push_back(paper);
  }
  auto whole = MakeDetector(0.2, 0.05, 1u << 16, 11);
  auto left = MakeDetector(0.2, 0.05, 1u << 16, 11);
  auto right = MakeDetector(0.2, 0.05, 1u << 16, 11);
  for (std::size_t i = 0; i < papers.size(); ++i) {
    whole.AddPaper(papers[i]);
    (i % 3 == 0 ? left : right).AddPaper(papers[i]);
  }
  OneHeavyHitter left_right = left.sketch;
  left_right.Merge(right.sketch);
  OneHeavyHitter right_left = right.sketch;
  right_left.Merge(left.sketch);
  EXPECT_EQ(Bytes(left_right), Bytes(whole.sketch));
  EXPECT_EQ(Bytes(right_left), Bytes(whole.sketch));
}

TEST(OneHeavyHitterTest, PaperAboveMaxPapersLandsOnTheTopLevel) {
  constexpr std::uint64_t kMaxPapers = 100;
  auto detector = MakeDetector(0.5, 0.05, kMaxPapers, 9);
  const int top = GeometricGrid(kMaxPapers, 0.5).num_levels() - 1;
  EXPECT_EQ(detector.sketch.LevelOf(kMaxPapers * 1000), top);
  EXPECT_EQ(detector.sketch.LevelOf(~std::uint64_t{0}), top);
  PaperTuple paper;
  paper.paper = 4;
  paper.authors.PushBack(3);
  paper.citations = kMaxPapers * 1000;
  detector.AddPaper(paper);
  const DetectorState state = ReadState(detector.sketch);
  ASSERT_EQ(state.buckets.size(), static_cast<std::size_t>(top) + 1);
  EXPECT_EQ(state.num_papers, 1u);
  for (int i = 0; i <= top; ++i) {
    const std::size_t level = static_cast<std::size_t>(i);
    EXPECT_EQ(state.buckets[level], i == top ? 1u : 0u) << "level " << i;
    // Offered top down, it enters every threshold's (empty) sample.
    EXPECT_EQ(state.sample_sizes[level], 1u) << "level " << i;
  }
}

TEST(OneHeavyHitterTest, AddPaperEqualsThePerCellStep) {
  // Algorithm 8 computes the level and the sample entry once per paper
  // and hands them to AddAtLevel; the standalone AddPaper must give the
  // same bytes, including for 0 citations and counts above max_papers.
  Rng rng(13);
  auto wrapper = MakeDetector(0.2, 0.05, 500, 13);
  auto per_cell = MakeDetector(0.2, 0.05, 500, 13);
  for (std::uint64_t p = 0; p < 800; ++p) {
    PaperTuple paper;
    paper.paper = rng.UniformU64(600);  // some ids repeat
    paper.authors.PushBack(rng.UniformU64(6));
    if (rng.Bernoulli(0.3)) paper.authors.PushBack(6 + rng.UniformU64(3));
    const std::uint64_t roll = rng.UniformU64(10);
    paper.citations = roll == 0   ? 0
                      : roll == 1 ? 500 + rng.UniformU64(1u << 20)
                                  : 1 + rng.UniformU64(400);
    wrapper.AddPaper(paper);
    per_cell.sketch.AddAtLevel(
        {per_cell.priority(paper.paper), paper.paper, paper.authors},
        per_cell.sketch.LevelOf(paper.citations));
  }
  EXPECT_EQ(Bytes(wrapper.sketch), Bytes(per_cell.sketch));
}

TEST(OneHeavyHitterTest, EarlierLayoutsAreRefused) {
  // The magic's first byte is its layout digit: '1' (reservoirs) and
  // '2' (whole tuples per sample) are earlier builds', refused; any
  // other digit is no layout at all.
  auto detector = MakeDetector(0.2, 0.05, 500, 17);
  detector.AddPaper(SingleAuthorPapers(3, 1, 40)[0]);
  const std::vector<std::uint8_t> bytes = Bytes(detector.sketch);
  ASSERT_EQ(bytes[0], '3');
  for (const auto& [digit, code] :
       {std::pair{'1', StatusCode::kFailedPrecondition},
        std::pair{'2', StatusCode::kFailedPrecondition},
        std::pair{'7', StatusCode::kInvalidArgument}}) {
    std::vector<std::uint8_t> earlier = bytes;
    earlier[0] = static_cast<std::uint8_t>(digit);
    ByteReader reader(earlier);
    EXPECT_EQ(
        OneHeavyHitter::DeserializeFrom(reader, detector.priority)
            .status()
            .code(),
        code)
        << digit;
  }
}

TEST(OneHeavyHitterTest, AdmissionBarStaysCurrentAfterMergeDecodeAndCopy) {
  // Each level turns away, without reading its sample, a paper ranked
  // above its full sample's largest entry. A bar left stale by a merge,
  // a decode or a copy would turn away papers the sample takes (or
  // offer ones it refuses) and the bytes would drift from a detector fed
  // the whole stream. Small samples fill at once, so most offers meet a
  // full sample's bar.
  OneHeavyHitter::Options options;
  options.eps = 0.2;
  options.delta = 0.05;
  options.max_papers = 1u << 12;
  options.sample_size_override = 4;
  const TabulationHash priority(21);
  const auto make = [&options] {
    return OneHeavyHitter::Create(options).value();
  };
  const auto feed = [&priority](OneHeavyHitter& detector,
                                const PaperStream& papers, std::size_t begin,
                                std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      detector.AddPaper(papers[i], priority(papers[i].paper));
    }
  };
  Rng rng(21);
  PaperStream papers;
  for (std::uint64_t p = 0; p < 1500; ++p) {
    PaperTuple paper;
    paper.paper = rng.UniformU64(1200);  // some ids repeat
    paper.authors.PushBack(rng.UniformU64(7));
    paper.citations = 1 + rng.UniformU64(4000);
    papers.push_back(paper);
  }
  OneHeavyHitter whole = make();
  feed(whole, papers, 0, papers.size());
  const std::vector<std::uint8_t> want = Bytes(whole);
  OneHeavyHitter prefix = make();
  feed(prefix, papers, 0, 1000);

  // Merge: the bottom-s of the union, into a detector with fuller and
  // with emptier samples than the result.
  OneHeavyHitter left = make();
  OneHeavyHitter right = make();
  for (std::size_t i = 0; i < 1000; ++i) {
    (i % 4 == 0 ? left : right).AddPaper(papers[i], priority(papers[i].paper));
  }
  for (OneHeavyHitter* into : {&left, &right}) {
    OneHeavyHitter merged = *into;
    merged.Merge(into == &left ? right : left);
    feed(merged, papers, 1000, papers.size());
    EXPECT_EQ(Bytes(merged), want) << "after a merge";
  }

  // Decode.
  ByteWriter full;
  prefix.SerializeTo(full);
  const std::vector<std::uint8_t> full_bytes = full.Take();
  ByteReader full_reader(full_bytes);
  OneHeavyHitter decoded =
      OneHeavyHitter::DeserializeFrom(full_reader, priority).value();
  feed(decoded, papers, 1000, papers.size());
  EXPECT_EQ(Bytes(decoded), want) << "after DeserializeFrom";

  // Copy, by construction and by assignment over a fuller detector.
  OneHeavyHitter copied = prefix;
  feed(copied, papers, 1000, papers.size());
  EXPECT_EQ(Bytes(copied), want) << "after a copy";
  OneHeavyHitter assigned = whole;
  assigned = prefix;
  feed(assigned, papers, 1000, papers.size());
  EXPECT_EQ(Bytes(assigned), want) << "after an assignment";
}

}  // namespace
}  // namespace himpact
