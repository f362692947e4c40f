#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
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
}

TEST(OneHeavyHitterTest, SampleIsASetOfPaperAuthorEntries) {
  // A retried paper is turned away; the same id under another author
  // list is a second entry, ordered after the shorter list.
  using Entry = OneHeavyHitter::SampledPaper;
  const TabulationHash priority(10);
  const Entry paper{priority(77), 77, AuthorList{5}};
  const Entry coauthored{priority(77), 77, AuthorList{5, 6}};
  BottomSample<Entry> sample;
  EXPECT_TRUE(sample.Offer(paper, 4));
  EXPECT_FALSE(sample.Offer(paper, 4));
  EXPECT_TRUE(sample.Offer(coauthored, 4));
  ASSERT_EQ(sample.entries().size(), 2u);
  EXPECT_EQ(sample.entries()[0], paper);
  EXPECT_EQ(sample.entries()[1], coauthored);
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

}  // namespace
}  // namespace himpact
