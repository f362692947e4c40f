// T8 — 1-Heavy-Hitter detector (Theorem 17): detection probability when
// a single author dominates the stream versus the rejection rate on
// noisy streams (no dominant author / two balanced heavy authors).

#include <cstdio>

#include "eval/table.h"
#include "hash/tabulation.h"
#include "heavy/one_heavy_hitter.h"
#include "random/rng.h"
#include "workload/academic.h"

namespace {

using namespace himpact;

PaperStream StarPlusNoise(std::uint64_t star_papers, std::uint64_t star_cites,
                          int noise_authors, std::uint64_t noise_cites,
                          Rng& rng) {
  PaperStream papers;
  PaperId next = 0;
  for (std::uint64_t p = 0; p < star_papers; ++p) {
    PaperTuple paper;
    paper.paper = next++;
    paper.authors.PushBack(1);
    paper.citations = star_cites;
    papers.push_back(paper);
  }
  for (int a = 0; a < noise_authors; ++a) {
    for (int p = 0; p < 3; ++p) {
      PaperTuple paper;
      paper.paper = next++;
      paper.authors.PushBack(static_cast<AuthorId>(100 + a));
      paper.citations = noise_cites;
      papers.push_back(paper);
    }
  }
  Shuffle(papers, rng);
  return papers;
}

}  // namespace

int main() {
  std::printf("T8: 1-heavy-hitter detection vs rejection (Theorem 17)\n\n");

  const double eps = 0.25;
  const double delta = 0.05;
  const int trials = 40;
  Rng rng(8);

  Table table({"scenario", "should detect", "detected", "correct author",
               "rate"});

  // Scenario A: one dominant star (h = 150) over weak noise.
  {
    int detected = 0, correct = 0;
    for (int t = 0; t < trials; ++t) {
      OneHeavyHitter::Options options;
      options.eps = eps;
      options.delta = delta;
      options.max_papers = 1u << 16;
      auto detector = OneHeavyHitter::Create(options).value();
      const TabulationHash priority(static_cast<std::uint64_t>(t) + 1);
      for (const PaperTuple& paper :
           StarPlusNoise(150, 150, 20, 2, rng)) {
        detector.AddPaper(paper, priority(paper.paper));
      }
      const auto result = detector.Detect();
      if (result.has_value()) {
        ++detected;
        if (result->author == 1) ++correct;
      }
    }
    table.NewRow()
        .Cell("single star, weak noise")
        .Cell("yes")
        .Cell(static_cast<std::uint64_t>(static_cast<unsigned>(detected)))
        .Cell(static_cast<std::uint64_t>(static_cast<unsigned>(correct)))
        .Cell(FormatDouble(100.0 * detected / trials, 0) + "%");
  }

  // Scenario B: two balanced heavy authors — must be rejected.
  {
    int detected = 0;
    for (int t = 0; t < trials; ++t) {
      OneHeavyHitter::Options options;
      options.eps = eps;
      options.delta = delta;
      options.max_papers = 1u << 16;
      auto detector = OneHeavyHitter::Create(options).value();
      const TabulationHash priority(static_cast<std::uint64_t>(t) + 500);
      PaperStream papers;
      PaperId next = 0;
      for (const AuthorId author : {AuthorId{1}, AuthorId{2}}) {
        for (int p = 0; p < 100; ++p) {
          PaperTuple paper;
          paper.paper = next++;
          paper.authors.PushBack(author);
          paper.citations = 100;
          papers.push_back(paper);
        }
      }
      Shuffle(papers, rng);
      for (const PaperTuple& paper : papers) {
        detector.AddPaper(paper, priority(paper.paper));
      }
      if (detector.Detect().has_value()) ++detected;
    }
    table.NewRow()
        .Cell("two balanced heavy authors")
        .Cell("no")
        .Cell(static_cast<std::uint64_t>(static_cast<unsigned>(detected)))
        .Cell("-")
        .Cell(FormatDouble(100.0 * detected / trials, 0) + "%");
  }

  // Scenario C: fully noisy stream (100 one-paper authors).
  {
    int detected = 0;
    for (int t = 0; t < trials; ++t) {
      OneHeavyHitter::Options options;
      options.eps = eps;
      options.delta = delta;
      options.max_papers = 1u << 16;
      auto detector = OneHeavyHitter::Create(options).value();
      const TabulationHash priority(static_cast<std::uint64_t>(t) + 900);
      for (AuthorId a = 0; a < 100; ++a) {
        PaperTuple paper;
        paper.paper = a;
        paper.authors.PushBack(a);
        paper.citations = 40;
        detector.AddPaper(paper, priority(paper.paper));
      }
      if (detector.Detect().has_value()) ++detected;
    }
    table.NewRow()
        .Cell("100 one-paper authors")
        .Cell("no")
        .Cell(static_cast<std::uint64_t>(static_cast<unsigned>(detected)))
        .Cell("-")
        .Cell(FormatDouble(100.0 * detected / trials, 0) + "%");
  }

  table.Print();
  std::printf(
      "\nexpected shape: the star scenario detects (and names) author 1 at\n"
      "~100%%; both noisy scenarios stay at ~0%% detections — the two cases\n"
      "Theorem 17 distinguishes.\n");
  return 0;
}
