// Unit tests for ranking metrics (eqs. 16-18) and the batched evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/eval/metrics.h"

namespace smgcn {
namespace eval {
namespace {

using data::Corpus;
using data::Vocabulary;

// --------------------------------------------------------------------------
// TopK
// --------------------------------------------------------------------------

TEST(TopKTest, OrdersByDescendingScore) {
  EXPECT_EQ(TopK({0.1, 0.9, 0.5, 0.7}, 3), (std::vector<std::size_t>{1, 3, 2}));
}

TEST(TopKTest, KLargerThanSizeReturnsAll) {
  EXPECT_EQ(TopK({0.2, 0.1}, 10), (std::vector<std::size_t>{0, 1}));
}

TEST(TopKTest, TiesBrokenByLowerIndex) {
  EXPECT_EQ(TopK({0.5, 0.5, 0.5}, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(TopKTest, ZeroKIsEmpty) { EXPECT_TRUE(TopK({1.0}, 0).empty()); }

TEST(TopKTest, NanRanksAfterEveryNumberTiesByIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> scores = {nan, 0.5, -inf, nan, 2.0, -0.0, 0.0};
  // Numbers best first (-0 and +0 tie by index), then the NaNs by index.
  const std::vector<std::size_t> all = {4, 1, 5, 6, 2, 0, 3};
  EXPECT_EQ(TopK(scores, scores.size()), all);
  for (std::size_t k = 0; k <= scores.size() + 1; ++k) {
    const std::size_t expect = std::min(k, scores.size());
    EXPECT_EQ(TopK(scores, k),
              std::vector<std::size_t>(all.begin(), all.begin() + expect))
        << "k=" << k;
  }
  // All NaN: index order.
  EXPECT_EQ(TopK({nan, nan, nan}, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(TopKTest, ResultCapacityIsExactlyK) {
  // A kept ranking must not carry the catalog-sized buffer it was picked
  // from: 16k stored top-20 lists over 753 herbs would otherwise pin ~6 KB
  // each.
  std::vector<double> scores(753);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = std::sin(static_cast<double>(i));
  }
  for (const std::size_t k : {1u, 20u, 376u, 753u, 800u}) {
    const std::vector<std::size_t> top = TopK(scores, k);
    EXPECT_EQ(top.size(), std::min<std::size_t>(k, scores.size()));
    EXPECT_EQ(top.capacity(), top.size()) << "k=" << k;
  }
}

// --------------------------------------------------------------------------
// Precision / Recall / NDCG
// --------------------------------------------------------------------------

TEST(MetricsTest, PrecisionCountsHitsOverK) {
  const std::vector<std::size_t> ranked{4, 2, 7, 1, 9};
  const std::vector<int> relevant{2, 9, 5};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 2), 0.5);   // hit: 2
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 5), 0.4);   // hits: 2, 9
}

TEST(MetricsTest, PrecisionWithShortRankedList) {
  EXPECT_DOUBLE_EQ(PrecisionAtK({1, 2}, {1, 2}, 10), 1.0);  // K = min(10, 2)
}

TEST(MetricsTest, RecallCoversRelevantSet) {
  const std::vector<std::size_t> ranked{4, 2, 7, 1, 9};
  const std::vector<int> relevant{2, 9, 5};
  EXPECT_NEAR(RecallAtK(ranked, relevant, 5), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(RecallAtK(ranked, relevant, 2), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, {}, 5), 0.0);
}

TEST(MetricsTest, PerfectRankingScoresOne) {
  const std::vector<std::size_t> ranked{3, 1, 2};
  const std::vector<int> relevant{1, 2, 3};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 3), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 3), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(ranked, relevant, 3), 1.0);
}

TEST(MetricsTest, NdcgRewardsEarlierHits) {
  const std::vector<int> relevant{0};
  const double early = NdcgAtK({0, 1, 2}, relevant, 3);
  const double late = NdcgAtK({2, 1, 0}, relevant, 3);
  EXPECT_DOUBLE_EQ(early, 1.0);
  EXPECT_NEAR(late, 1.0 / std::log2(4.0), 1e-12);
  EXPECT_GT(early, late);
}

TEST(MetricsTest, NdcgHandComputedCase) {
  // Hits at ranks 1 and 3 out of 2 relevant items.
  const std::vector<std::size_t> ranked{5, 9, 7};
  const std::vector<int> relevant{5, 7};
  const double dcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(4.0);
  const double idcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(3.0);
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 3), dcg / idcg, 1e-12);
}

TEST(MetricsTest, NoHitsGivesZeroEverywhere) {
  const MetricsAtK m = ComputeMetricsAtK({1, 2, 3}, {7, 8}, 3);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 0.0);
}

TEST(MetricsTest, MetricsIgnoreNegativeRelevantIds) {
  EXPECT_DOUBLE_EQ(PrecisionAtK({0}, {-1, 0}, 1), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({0}, {-1, 0}, 1), 1.0);
}

TEST(MetricsTest, AveragePrecisionHandComputed) {
  // Hits at ranks 1 and 3 of 2 relevant: AP = (1/1 + 2/3) / 2.
  const std::vector<std::size_t> ranked{5, 9, 7};
  const std::vector<int> relevant{5, 7};
  EXPECT_NEAR(AveragePrecisionAtK(ranked, relevant, 3), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(ranked, relevant, 1), 1.0);
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(ranked, {}, 3), 0.0);
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK({1, 2, 3}, {9}, 3), 0.0);
}

TEST(MetricsTest, HitRateIsBinary) {
  EXPECT_DOUBLE_EQ(HitRateAtK({1, 2, 3}, {3}, 3), 1.0);
  EXPECT_DOUBLE_EQ(HitRateAtK({1, 2, 3}, {3}, 2), 0.0);
  EXPECT_DOUBLE_EQ(HitRateAtK({1, 2, 3}, {9}, 3), 0.0);
  EXPECT_DOUBLE_EQ(HitRateAtK({}, {1}, 5), 0.0);
}

TEST(MetricsTest, CatalogCoverage) {
  EXPECT_DOUBLE_EQ(CatalogCoverage({{0, 1}, {1, 2}}, 10), 0.3);
  EXPECT_DOUBLE_EQ(CatalogCoverage({}, 10), 0.0);
  EXPECT_DOUBLE_EQ(CatalogCoverage({{0, 1, 2, 3}}, 4), 1.0);
  EXPECT_DOUBLE_EQ(CatalogCoverage({{0}}, 0), 0.0);
  // Out-of-catalogue items are ignored.
  EXPECT_DOUBLE_EQ(CatalogCoverage({{0, 99}}, 10), 0.1);
}

// --------------------------------------------------------------------------
// Evaluator
// --------------------------------------------------------------------------

Corpus TestCorpus() {
  Corpus corpus(Vocabulary::Synthetic(3, "s"), Vocabulary::Synthetic(6, "h"), {});
  EXPECT_TRUE(corpus.Add({{0}, {0, 1}}).ok());
  EXPECT_TRUE(corpus.Add({{1}, {2}}).ok());
  return corpus;
}

TEST(EvaluatorTest, PerfectScorerGetsPerfectRecall) {
  const Corpus corpus = TestCorpus();
  // Scores the true herbs of each symptom set highest.
  HerbScorer scorer = [&corpus](const std::vector<int>& symptoms) {
    std::vector<double> scores(corpus.num_herbs(), 0.0);
    if (symptoms[0] == 0) {
      scores[0] = 2.0;
      scores[1] = 1.5;
    } else {
      scores[2] = 2.0;
    }
    return scores;
  };
  auto report = Evaluate(scorer, corpus, {2, 5});
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->At(2).recall, 1.0);
  EXPECT_DOUBLE_EQ(report->At(5).recall, 1.0);
  EXPECT_DOUBLE_EQ(report->At(2).ndcg, 1.0);
  // p@2 averages 1.0 (two hits) and 0.5 (one hit of two slots).
  EXPECT_DOUBLE_EQ(report->At(2).precision, 0.75);
  EXPECT_EQ(report->num_prescriptions, 2u);
}

TEST(EvaluatorTest, PaperRowOrdering) {
  const Corpus corpus = TestCorpus();
  HerbScorer scorer = [&corpus](const std::vector<int>&) {
    return std::vector<double>(corpus.num_herbs(), 0.0);
  };
  auto report = Evaluate(scorer, corpus, {5, 10, 20});
  ASSERT_TRUE(report.ok());
  const auto row = report->PaperRow();
  ASSERT_EQ(row.size(), 9u);  // p@5 p@10 p@20 r@5 r@10 r@20 n@5 n@10 n@20
}

TEST(EvaluatorTest, RejectsEmptyCorpusAndCutoffs) {
  Corpus empty(Vocabulary::Synthetic(1, "s"), Vocabulary::Synthetic(1, "h"), {});
  HerbScorer scorer = [](const std::vector<int>&) {
    return std::vector<double>{0.0};
  };
  EXPECT_EQ(Evaluate(scorer, empty).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Evaluate(scorer, TestCorpus(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EvaluatorTest, DetectsWrongScoreWidth) {
  HerbScorer bad = [](const std::vector<int>&) {
    return std::vector<double>{1.0};  // corpus has 6 herbs
  };
  EXPECT_EQ(Evaluate(bad, TestCorpus()).status().code(), StatusCode::kInternal);
}

TEST(EvaluatorTest, ToStringContainsAllCutoffs) {
  const Corpus corpus = TestCorpus();
  HerbScorer scorer = [&corpus](const std::vector<int>&) {
    return std::vector<double>(corpus.num_herbs(), 0.0);
  };
  auto report = Evaluate(scorer, corpus, {5, 10});
  ASSERT_TRUE(report.ok());
  const std::string s = report->ToString();
  EXPECT_NE(s.find("p@5"), std::string::npos);
  EXPECT_NE(s.find("ndcg@10"), std::string::npos);
}

TEST(EvaluatorDeathTest, MissingCutoffAborts) {
  EvaluationReport report;
  report.cutoffs = {5};
  report.metrics = {MetricsAtK{}};
  EXPECT_DEATH(report.At(10), "not present");
}

}  // namespace
}  // namespace eval
}  // namespace smgcn
