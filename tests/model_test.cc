// End-to-end tests of SMGCN and its ablation submodels: configuration
// validation, training dynamics, scoring contract, determinism, and that
// the model actually learns (beats the popularity heuristic).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/smgcn_model.h"
#include "src/core/train_telemetry.h"
#include "src/core/trainer.h"
#include "src/util/logging.h"
#include "tests/test_util.h"

namespace smgcn {
namespace core {
namespace {

TrainConfig FastTrainConfig() {
  TrainConfig train;
  train.learning_rate = 3e-3;
  train.l2_lambda = 1e-4;
  train.batch_size = 128;
  train.epochs = 25;
  train.seed = 3;
  return train;
}

ModelConfig SmallModelConfig() {
  ModelConfig model;
  model.embedding_dim = 16;
  model.layer_dims = {32, 32};
  model.thresholds = {2, 5};
  return model;
}

// --------------------------------------------------------------------------
// Config validation
// --------------------------------------------------------------------------

TEST(ConfigTest, TrainConfigValidation) {
  EXPECT_TRUE(FastTrainConfig().Validate().ok());
  auto bad = FastTrainConfig();
  bad.learning_rate = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastTrainConfig();
  bad.l2_lambda = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastTrainConfig();
  bad.batch_size = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastTrainConfig();
  bad.epochs = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = FastTrainConfig();
  bad.loss = LossKind::kBpr;
  bad.bpr_negatives = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ConfigTest, ModelConfigValidation) {
  EXPECT_TRUE(SmallModelConfig().Validate().ok());
  auto bad = SmallModelConfig();
  bad.embedding_dim = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallModelConfig();
  bad.layer_dims = {16, 0};
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallModelConfig();
  bad.dropout = 1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallModelConfig();
  bad.dropout = -0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallModelConfig();
  bad.thresholds.xs = -1;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ConfigTest, FinalDim) {
  auto cfg = SmallModelConfig();
  EXPECT_EQ(cfg.FinalDim(), 32u);
  cfg.layer_dims = {};
  EXPECT_EQ(cfg.FinalDim(), cfg.embedding_dim);
}

TEST(ConfigTest, LossKindNames) {
  EXPECT_STREQ(LossKindToString(LossKind::kMultiLabel), "multi-label");
  EXPECT_STREQ(LossKindToString(LossKind::kBpr), "bpr");
}

// --------------------------------------------------------------------------
// Trainer helpers
// --------------------------------------------------------------------------

TEST(TrainerHelpersTest, TargetMatrixIsMultiHot) {
  const auto split = testutil::SmallSplit();
  const auto targets = BuildTargetMatrix(split.train, {0, 1});
  EXPECT_EQ(targets.rows(), 2u);
  EXPECT_EQ(targets.cols(), split.train.num_herbs());
  const auto& p0 = split.train.at(0);
  double row_sum = 0.0;
  for (std::size_t c = 0; c < targets.cols(); ++c) row_sum += targets(0, c);
  EXPECT_DOUBLE_EQ(row_sum, static_cast<double>(p0.herbs.size()));
  for (int h : p0.herbs) {
    EXPECT_DOUBLE_EQ(targets(0, static_cast<std::size_t>(h)), 1.0);
  }
}

TEST(TrainerHelpersTest, PoolingCsrRowsAverage) {
  const auto split = testutil::SmallSplit();
  const auto pool = BuildSymptomPoolingCsr(split.train, {0, 3});
  EXPECT_EQ(pool.rows(), 2u);
  EXPECT_EQ(pool.cols(), split.train.num_symptoms());
  const auto sums = pool.RowSums();
  EXPECT_NEAR(sums[0], 1.0, 1e-12);
  EXPECT_NEAR(sums[1], 1.0, 1e-12);
  EXPECT_EQ(pool.RowNnz(0), split.train.at(0).symptoms.size());
}

TEST(TrainerHelpersTest, BprTriplesAvoidPositives) {
  const auto split = testutil::SmallSplit();
  Rng rng(5);
  const auto triples = SampleBprTriples(split.train, {0, 1, 2}, 2, &rng);
  EXPECT_FALSE(triples.empty());
  for (const auto& t : triples) {
    ASSERT_LT(t.row, 3u);
    const auto& herbs = split.train.at(t.row).herbs;
    EXPECT_TRUE(std::binary_search(herbs.begin(), herbs.end(),
                                   static_cast<int>(t.positive)));
    EXPECT_FALSE(std::binary_search(herbs.begin(), herbs.end(),
                                    static_cast<int>(t.negative)));
  }
  // negatives per positive respected.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    expected += 2 * split.train.at(i).herbs.size();
  }
  EXPECT_EQ(triples.size(), expected);
}

// --------------------------------------------------------------------------
// SMGCN end-to-end
// --------------------------------------------------------------------------

TEST(SmgcnModelTest, NameReflectsComponents) {
  auto cfg = SmallModelConfig();
  cfg.use_sge = true;
  cfg.use_si_mlp = true;
  EXPECT_EQ(SmgcnModel(cfg, FastTrainConfig()).name(), "SMGCN");
  cfg.use_sge = false;
  EXPECT_EQ(SmgcnModel(cfg, FastTrainConfig()).name(), "Bipar-GCN w/ SI");
  cfg.use_si_mlp = false;
  EXPECT_EQ(SmgcnModel(cfg, FastTrainConfig()).name(), "Bipar-GCN");
  cfg.use_sge = true;
  EXPECT_EQ(SmgcnModel(cfg, FastTrainConfig()).name(), "Bipar-GCN w/ SGE");
}

TEST(SmgcnModelTest, ScoreBeforeFitFails) {
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  EXPECT_EQ(model.Score({0}).status().code(), StatusCode::kFailedPrecondition);
}

TEST(SmgcnModelTest, FitRejectsEmptyCorpus) {
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  data::Corpus empty(data::Vocabulary::Synthetic(2, "s"),
                     data::Vocabulary::Synthetic(2, "h"), {});
  EXPECT_EQ(model.Fit(empty).code(), StatusCode::kFailedPrecondition);
}

TEST(SmgcnModelTest, TrainsAndLearns) {
  const auto split = testutil::SmallSplit();
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  ASSERT_TRUE(model.Fit(split.train).ok());

  // Loss decreased substantially.
  const auto& losses = model.train_summary().epoch_losses;
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), 0.8 * losses.front());

  // Beats the popularity heuristic on recall@20.
  auto model_report = eval::Evaluate(model.AsScorer(), split.test);
  auto pop_report =
      eval::Evaluate(testutil::PopularityScorer(split.train), split.test);
  ASSERT_TRUE(model_report.ok());
  ASSERT_TRUE(pop_report.ok());
  EXPECT_GT(model_report->At(20).recall, pop_report->At(20).recall);
  EXPECT_GT(model_report->At(20).recall, 0.3);
}

TEST(SmgcnModelTest, EmbeddingsHaveExpectedShapes) {
  const auto split = testutil::SmallSplit();
  auto cfg = SmallModelConfig();
  SmgcnModel model(cfg, FastTrainConfig());
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_EQ(model.symptom_embeddings().rows(), split.train.num_symptoms());
  EXPECT_EQ(model.symptom_embeddings().cols(), cfg.FinalDim());
  EXPECT_EQ(model.herb_embeddings().rows(), split.train.num_herbs());
  EXPECT_TRUE(model.symptom_embeddings().AllFinite());
  EXPECT_TRUE(model.herb_embeddings().AllFinite());
}

TEST(SmgcnModelTest, ScoreContract) {
  const auto split = testutil::SmallSplit();
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  ASSERT_TRUE(model.Fit(split.train).ok());

  auto scores = model.Score({0, 1, 2});
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), split.train.num_herbs());

  EXPECT_EQ(model.Score({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Score({-1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(model.Score({99999}).status().code(), StatusCode::kInvalidArgument);
}

TEST(SmgcnModelTest, RecommendReturnsTopK) {
  const auto split = testutil::SmallSplit();
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  ASSERT_TRUE(model.Fit(split.train).ok());
  auto top = model.Recommend({0, 1}, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 5u);
  auto scores = model.Score({0, 1});
  ASSERT_TRUE(scores.ok());
  // Returned ids really are the argmaxes.
  for (std::size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE((*scores)[(*top)[i - 1]], (*scores)[(*top)[i]]);
  }
}

TEST(SmgcnModelTest, DeterministicAcrossRuns) {
  const auto split = testutil::SmallSplit();
  SmgcnModel a(SmallModelConfig(), FastTrainConfig());
  SmgcnModel b(SmallModelConfig(), FastTrainConfig());
  ASSERT_TRUE(a.Fit(split.train).ok());
  ASSERT_TRUE(b.Fit(split.train).ok());
  auto sa = a.Score({1, 2});
  auto sb = b.Score({1, 2});
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_DOUBLE_EQ((*sa)[i], (*sb)[i]);
  }
}

TEST(SmgcnModelTest, RefitIsRejected) {
  const auto split = testutil::SmallSplit();
  SmgcnModel model(SmallModelConfig(), FastTrainConfig());
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_EQ(model.Fit(split.train).code(), StatusCode::kFailedPrecondition);
}

TEST(SmgcnModelTest, SubmodelsAllTrain) {
  const auto split = testutil::SmallSplit();
  for (const bool use_sge : {false, true}) {
    for (const bool use_si : {false, true}) {
      auto cfg = SmallModelConfig();
      cfg.use_sge = use_sge;
      cfg.use_si_mlp = use_si;
      auto train = FastTrainConfig();
      train.epochs = 5;
      SmgcnModel model(cfg, train);
      ASSERT_TRUE(model.Fit(split.train).ok()) << model.name();
      auto report = eval::Evaluate(model.AsScorer(), split.test);
      ASSERT_TRUE(report.ok()) << model.name();
      EXPECT_GT(report->At(20).recall, 0.1) << model.name();
    }
  }
}

TEST(SmgcnModelTest, TrainsWithDropout) {
  const auto split = testutil::SmallSplit();
  auto cfg = SmallModelConfig();
  cfg.dropout = 0.3;
  auto train = FastTrainConfig();
  train.epochs = 5;
  SmgcnModel model(cfg, train);
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_TRUE(model.symptom_embeddings().AllFinite());
}

TEST(SmgcnModelTest, TrainsWithBprLoss) {
  const auto split = testutil::SmallSplit();
  auto train = FastTrainConfig();
  train.loss = LossKind::kBpr;
  train.epochs = 5;
  SmgcnModel model(SmallModelConfig(), train);
  ASSERT_TRUE(model.Fit(split.train).ok());
  auto report = eval::Evaluate(model.AsScorer(), split.test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->At(20).recall, 0.1);
}

TEST(SmgcnModelTest, SingleLayerAndThreeLayerVariants) {
  const auto split = testutil::SmallSplit();
  for (const std::size_t depth : {1u, 3u}) {
    auto cfg = SmallModelConfig();
    cfg.layer_dims.assign(depth, 24);
    auto train = FastTrainConfig();
    train.epochs = 4;
    SmgcnModel model(cfg, train);
    ASSERT_TRUE(model.Fit(split.train).ok()) << "depth " << depth;
    EXPECT_EQ(model.symptom_embeddings().cols(), 24u);
  }
}

TEST(SmgcnModelTest, AttentionFusionVariantTrains) {
  const auto split = testutil::SmallSplit();
  auto cfg = SmallModelConfig();
  cfg.fusion = FusionKind::kAttention;
  auto train = FastTrainConfig();
  train.epochs = 8;
  SmgcnModel model(cfg, train);
  EXPECT_EQ(model.name(), "SMGCN-Att");
  ASSERT_TRUE(model.Fit(split.train).ok());
  // The attention parameters exist and received gradient updates.
  auto w_att = model.parameters().Get("fusion.W_att_s");
  ASSERT_TRUE(w_att.ok());
  auto report = eval::Evaluate(model.AsScorer(), split.test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->At(20).recall, 0.1);
}

TEST(SmgcnModelTest, MeanSgeAggregatorTrains) {
  const auto split = testutil::SmallSplit();
  auto cfg = SmallModelConfig();
  cfg.sge_aggregator = SgeAggregator::kMean;
  auto train = FastTrainConfig();
  train.epochs = 8;
  SmgcnModel model(cfg, train);
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_TRUE(model.herb_embeddings().AllFinite());
  auto report = eval::Evaluate(model.AsScorer(), split.test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->At(20).recall, 0.1);
}

TEST(SmgcnModelTest, NeighborSamplingTrains) {
  const auto split = testutil::SmallSplit();
  auto cfg = SmallModelConfig();
  cfg.max_sampled_neighbors = 5;  // aggressive cap
  auto train = FastTrainConfig();
  train.epochs = 8;
  SmgcnModel model(cfg, train);
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_TRUE(model.herb_embeddings().AllFinite());
  // Inference still uses the full graph and produces sane rankings.
  auto report = eval::Evaluate(model.AsScorer(), split.test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->At(20).recall, 0.1);
}

TEST(SmgcnModelTest, FusionAndAggregatorNames) {
  EXPECT_STREQ(FusionKindToString(FusionKind::kAdd), "add");
  EXPECT_STREQ(FusionKindToString(FusionKind::kAttention), "attention");
  EXPECT_STREQ(SgeAggregatorToString(SgeAggregator::kSum), "sum");
  EXPECT_STREQ(SgeAggregatorToString(SgeAggregator::kMean), "mean");
}

TEST(SmgcnModelTest, DivergenceIsReportedNotCrashed) {
  const auto split = testutil::SmallSplit();
  auto train = FastTrainConfig();
  train.learning_rate = 1e6;  // guaranteed blow-up
  train.epochs = 3;
  SmgcnModel model(SmallModelConfig(), train);
  const Status status = model.Fit(split.train);
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
}

// --------------------------------------------------------------------------
// Telemetry
// --------------------------------------------------------------------------

TEST(SmgcnModelTest, EpochSecondsParallelToEpochLosses) {
  const auto split = testutil::SmallSplit();
  auto train = FastTrainConfig();
  train.epochs = 6;
  // Early stopping exercises the restructured loop: the stop epoch must
  // still get its seconds entry.
  train.validation_fraction = 0.2;
  train.patience = 1;
  SmgcnModel model(SmallModelConfig(), train);
  ASSERT_TRUE(model.Fit(split.train).ok());
  const TrainSummary& summary = model.train_summary();
  ASSERT_FALSE(summary.epoch_losses.empty());
  EXPECT_EQ(summary.epoch_seconds.size(), summary.epoch_losses.size());
  for (double seconds : summary.epoch_seconds) EXPECT_GT(seconds, 0.0);
}

TEST(SmgcnModelTest, TelemetryGetsOneRecordPerEpochWithEvalMetrics) {
  const auto split = testutil::SmallSplit();
  TrainTelemetryOptions options;  // in-memory only
  options.eval_corpus = &split.test;
  auto telemetry = TrainTelemetry::Create(options);
  ASSERT_TRUE(telemetry.ok());

  auto train = FastTrainConfig();
  train.epochs = 5;
  SmgcnModel model(SmallModelConfig(), train);
  model.AttachTelemetry(telemetry->get());
  ASSERT_TRUE(model.Fit(split.train).ok());

  const auto& records = (*telemetry)->records();
  ASSERT_EQ(records.size(), model.train_summary().epoch_losses.size());
  EXPECT_EQ((*telemetry)->JsonLines().size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const EpochTelemetry& record = records[i];
    EXPECT_EQ(record.epoch, i + 1);
    EXPECT_EQ(record.mean_loss, model.train_summary().epoch_losses[i]);
    EXPECT_GT(record.param_norm, 0.0);
    EXPECT_GT(record.grad_norm, 0.0);
    EXPECT_GT(record.epoch_seconds, 0.0);
    ASSERT_TRUE(record.has_eval);
    EXPECT_GT(record.eval.At(20).recall, 0.0);
    const std::string json = record.ToJson();
    EXPECT_NE(json.find("\"event\":\"epoch\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  }
  // Later epochs train longer, so the model should not get *worse* by a
  // wide margin — sanity that mid-training eval runs on current params.
  EXPECT_GT(records.back().eval.At(20).recall,
            records.front().eval.At(20).recall * 0.5);
}

TEST(SmgcnModelTest, DivergenceNamesFirstNonFiniteParameterAndLogsEvent) {
  const auto split = testutil::SmallSplit();
  TrainTelemetryOptions options;
  auto telemetry = TrainTelemetry::Create(options);
  ASSERT_TRUE(telemetry.ok());

  auto train = FastTrainConfig();
  // Adam-style steps move parameters by ~learning_rate per step, so pick a
  // rate that overflows the very next forward pass (params ~1e200, squared
  // in the GEMM -> inf) regardless of gradient magnitudes.
  train.learning_rate = 1e200;
  train.epochs = 8;
  train.log_every = 0;
  SetLogSink([](LogLevel, const std::string&) {});  // quiet the ERROR line
  SmgcnModel model(SmallModelConfig(), train);
  model.AttachTelemetry(telemetry->get());
  const Status status = model.Fit(split.train);
  SetLogSink(nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("diverged"), std::string::npos)
      << status.message();
  // The divergence event reaches the telemetry stream too.
  bool saw_divergence = false;
  for (const std::string& line : (*telemetry)->JsonLines()) {
    if (line.find("\"event\":\"divergence\"") != std::string::npos) {
      saw_divergence = true;
    }
  }
  EXPECT_TRUE(saw_divergence);
}

}  // namespace
}  // namespace core
}  // namespace smgcn
