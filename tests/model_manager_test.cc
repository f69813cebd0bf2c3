// Tests for smgcn::serve::ModelManager: versioned publish / rollback /
// retire semantics, artifact-path publishing, per-model engine isolation,
// the serve.modelmanager.* instruments, and a concurrent publish/query
// hammer (run under TSan in CI) proving every response is attributable to
// exactly one published version.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/obs/registry.h"
#include "src/serve/engine.h"
#include "src/serve/model_manager.h"
#include "src/tensor/matrix.h"

namespace smgcn {
namespace serve {
namespace {

using tensor::Matrix;

constexpr std::size_t kSymptoms = 6;
constexpr std::size_t kHerbs = 10;
constexpr std::size_t kDim = 4;

// A checkpoint whose every embedding entry is `value` and that has no SI
// MLP, so scoring query {s} yields exactly kDim * value^2 for every herb.
// Distinct per-version values make each response attributable to exactly
// one published version by inspection.
core::InferenceCheckpoint ConstantCheckpoint(const std::string& name,
                                             double value) {
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = name;
  ckpt.symptom_embeddings = Matrix(kSymptoms, kDim, value);
  ckpt.herb_embeddings = Matrix(kHerbs, kDim, value);
  ckpt.has_si_mlp = false;
  return ckpt;
}

double ExpectedScore(double value) {
  return static_cast<double>(kDim) * value * value;
}

// Dense scores for `symptoms` from the engine hosting `model`.
Response DenseScores(const ModelManager& manager, const std::string& model,
                     std::vector<int> symptoms) {
  Request request;
  request.model = model;
  request.symptoms = std::move(symptoms);
  request.top_k = 0;
  return manager.Handle(request);
}

ModelManagerOptions QuietOptions() {
  ModelManagerOptions options;
  options.engine_options.cache_capacity = 64;
  return options;
}

TEST(ModelManagerTest, CreateRejectsBadOptions) {
  ModelManagerOptions options;
  options.retain_versions = 0;
  EXPECT_EQ(ModelManager::Create(options).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  options = ModelManagerOptions{};
  options.engine_options.max_batch_size = 0;
  EXPECT_EQ(ModelManager::Create(options).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(ModelManagerTest, PublishRouteAndList) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());

  auto receipt = (*manager)->Publish(ConstantCheckpoint("herbs", 1.0), "v1");
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->model, "herbs");
  EXPECT_EQ(receipt->version, "v1");

  auto version = (*manager)->ActiveVersion("herbs");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, "v1");

  const Response scores = DenseScores(**manager, "herbs", {0});
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores.scores.size(), kHerbs);
  for (double s : scores.scores) EXPECT_DOUBLE_EQ(s, ExpectedScore(1.0));

  Request ranked;
  ranked.model = "herbs";
  ranked.symptoms = {0, 2};
  ranked.top_k = 3;
  const Response topk = (*manager)->Handle(ranked);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk.herb_ids.size(), 3u);

  const auto models = (*manager)->ListModels();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "herbs");
  EXPECT_EQ(models[0].active_version, "v1");
  ASSERT_EQ(models[0].versions.size(), 1u);
  EXPECT_TRUE(models[0].versions[0].active);
  EXPECT_EQ(models[0].versions[0].num_herbs, kHerbs);

  // Unknown model: routing fails (NotFound maps to kUnavailable).
  EXPECT_EQ(DenseScores(**manager, "nope", {0}).status,
            serve::StatusCode::kUnavailable);
}

TEST(ModelManagerTest, PublishSwapsScoresAtomically) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 1.0), "v1").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 2.0), "v2").ok());

  const Response scores = DenseScores(**manager, "m", {1});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.scores[0], ExpectedScore(2.0));
  EXPECT_EQ(*(*manager)->ActiveVersion("m"), "v2");

  // The engine (and its stats) survive the swap.
  auto engine = (*manager)->Engine("m");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->active_version(), "v2");
}

TEST(ModelManagerTest, DuplicateVersionIsRejected) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 1.0), "v1").ok());
  EXPECT_EQ(
      (*manager)->Publish(ConstantCheckpoint("m", 2.0), "v1").status().code(),
      smgcn::StatusCode::kAlreadyExists);
  // The active version is untouched by the failed publish.
  EXPECT_EQ(*(*manager)->ActiveVersion("m"), "v1");
  const Response scores = DenseScores(**manager, "m", {0});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.scores[0], ExpectedScore(1.0));
}

TEST(ModelManagerTest, FailedFirstPublishLeavesNoModelBehind) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  core::InferenceCheckpoint bad;  // empty: fails validation
  bad.model_name = "ghost";
  EXPECT_FALSE((*manager)->Publish(std::move(bad), "v1").ok());
  EXPECT_EQ((*manager)->Engine("ghost").status().code(), smgcn::StatusCode::kNotFound);
  EXPECT_TRUE((*manager)->ListModels().empty());
}

TEST(ModelManagerTest, RollbackReactivatesPredecessor) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 1.0), "v1").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 2.0), "v2").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 3.0), "v3").ok());

  ASSERT_TRUE((*manager)->Rollback("m").ok());
  EXPECT_EQ(*(*manager)->ActiveVersion("m"), "v2");
  const Response scores = DenseScores(**manager, "m", {0});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.scores[0], ExpectedScore(2.0));

  ASSERT_TRUE((*manager)->Rollback("m").ok());
  EXPECT_EQ(*(*manager)->ActiveVersion("m"), "v1");
  // Only one version left: nothing to roll back to.
  EXPECT_EQ((*manager)->Rollback("m").code(),
            smgcn::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*manager)->Rollback("nope").code(), smgcn::StatusCode::kNotFound);
}

TEST(ModelManagerTest, RetireDropsOnlyInactiveVersions) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 1.0), "v1").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 2.0), "v2").ok());

  EXPECT_EQ((*manager)->Retire("m", "v2").code(),
            smgcn::StatusCode::kFailedPrecondition);  // active
  EXPECT_EQ((*manager)->Retire("m", "v9").code(), smgcn::StatusCode::kNotFound);
  EXPECT_EQ((*manager)->Retire("nope", "v1").code(), smgcn::StatusCode::kNotFound);
  ASSERT_TRUE((*manager)->Retire("m", "v1").ok());

  const auto models = (*manager)->ListModels();
  ASSERT_EQ(models.size(), 1u);
  ASSERT_EQ(models[0].versions.size(), 1u);
  EXPECT_EQ(models[0].versions[0].version, "v2");
}

TEST(ModelManagerTest, RetentionBoundsHistory) {
  ModelManagerOptions options = QuietOptions();
  options.retain_versions = 2;
  auto manager = ModelManager::Create(options);
  ASSERT_TRUE(manager.ok());
  for (int i = 1; i <= 4; ++i) {
    std::string version = "v";
    version += std::to_string(i);
    ASSERT_TRUE(
        (*manager)->Publish(ConstantCheckpoint("m", i), version).ok());
  }
  const auto models = (*manager)->ListModels();
  ASSERT_EQ(models.size(), 1u);
  ASSERT_EQ(models[0].versions.size(), 2u);
  EXPECT_EQ(models[0].versions[0].version, "v3");
  EXPECT_EQ(models[0].versions[1].version, "v4");
  EXPECT_EQ(models[0].active_version, "v4");
  // v1/v2 are gone: re-publishing v1 is allowed again.
  EXPECT_TRUE((*manager)->Publish(ConstantCheckpoint("m", 1.0), "v1").ok());
}

TEST(ModelManagerTest, ModelsAreIsolated) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("a", 1.0), "v1").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("b", 3.0), "v7").ok());

  const Response a = DenseScores(**manager, "a", {0});
  const Response b = DenseScores(**manager, "b", {0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.scores[0], ExpectedScore(1.0));
  EXPECT_DOUBLE_EQ(b.scores[0], ExpectedScore(3.0));

  const auto models = (*manager)->ListModels();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "a");  // sorted by name
  EXPECT_EQ(models[1].name, "b");
}

TEST(ModelManagerTest, PublishArtifactUsesEmbeddedIdentity) {
  const std::string path = testing::TempDir() + "/smgcn_mm_artifact.smga";
  ASSERT_TRUE(core::SaveArtifact(ConstantCheckpoint("artifact-model", 2.0),
                                 "2026-08-08-b", path)
                  .ok());

  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  auto receipt = (*manager)->PublishArtifact(path);
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->model, "artifact-model");
  EXPECT_EQ(receipt->version, "2026-08-08-b");

  const Response scores = DenseScores(**manager, "artifact-model", {0});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.scores[0], ExpectedScore(2.0));

  // Same version again: rejected, identity comes from the file.
  EXPECT_EQ((*manager)->PublishArtifact(path).status().code(),
            smgcn::StatusCode::kAlreadyExists);
  // A damaged file never touches serving state.
  EXPECT_FALSE((*manager)->PublishArtifact("/no/such.smga").ok());
  EXPECT_EQ(*(*manager)->ActiveVersion("artifact-model"), "2026-08-08-b");
}

TEST(ModelManagerTest, PublishArtifactServesF32StoreAtF32Precision) {
  const std::string path = testing::TempDir() + "/smgcn_mm_artifact_f32.smga";
  ASSERT_TRUE(core::SaveArtifact(ConstantCheckpoint("f32-model", 1.5),
                                 "2026-08-08-f32", path,
                                 tensor::Precision::kFloat32)
                  .ok());

  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  auto receipt = (*manager)->PublishArtifact(path);
  ASSERT_TRUE(receipt.ok()) << receipt.status();

  // The file's dtype carries through publish: the serving store runs the
  // f32 kernel path, not a widened f64 copy.
  auto engine = (*manager)->Engine("f32-model");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Snapshot()->store.precision(),
            tensor::Precision::kFloat32);

  // 1.5 and its products are exact in f32, so scores are still exact.
  const Response scores = DenseScores(**manager, "f32-model", {0});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.scores[0], ExpectedScore(1.5));
}

TEST(ModelManagerTest, PublishArtifactServesInt8StoreAtStoredPrecision) {
  const std::string path = testing::TempDir() + "/smgcn_mm_artifact_s8.smga";
  ASSERT_TRUE(core::SaveArtifact(ConstantCheckpoint("int8-model", 2.0),
                                 "2026-08-08-s8", path,
                                 tensor::Precision::kInt8)
                  .ok());

  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  auto receipt = (*manager)->PublishArtifact(path);
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->model, "int8-model");
  EXPECT_EQ(receipt->version, "2026-08-08-s8");

  // The file's dtype carries through publish: the engine serves the
  // artifact's quantized integers through the int8 kernel path, not a
  // dequantized f64 copy.
  auto engine = (*manager)->Engine("int8-model");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Snapshot()->store.precision(),
            tensor::Precision::kInt8);

  // Constant rows quantize to 127 * (value/127): scores land within f32
  // scale rounding of the exact kDim * value^2.
  const Response scores = DenseScores(**manager, "int8-model", {0});
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(scores.scores[0], ExpectedScore(2.0), 1e-4 * ExpectedScore(2.0));
}

TEST(ModelManagerTest, InstrumentsAreRegistered) {
  auto* publishes =
      obs::Registry::Global().GetCounter("serve.modelmanager.publishes");
  auto* rollbacks =
      obs::Registry::Global().GetCounter("serve.modelmanager.rollbacks");
  auto* versions =
      obs::Registry::Global().GetGauge("serve.modelmanager.active_versions");
  auto* open_latency = obs::Registry::Global().GetHistogram(
      "serve.modelmanager.artifact_open.seconds");
  const std::uint64_t publishes_before = publishes->value();
  const std::uint64_t rollbacks_before = rollbacks->value();
  const std::uint64_t opens_before = open_latency->count();

  const std::string path = testing::TempDir() + "/smgcn_mm_metrics.smga";
  ASSERT_TRUE(
      core::SaveArtifact(ConstantCheckpoint("metrics-model", 1.0), "v1", path)
          .ok());
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->PublishArtifact(path).ok());
  ASSERT_TRUE(
      (*manager)->Publish(ConstantCheckpoint("metrics-model", 2.0), "v2").ok());
  ASSERT_TRUE((*manager)->Rollback("metrics-model").ok());

  EXPECT_EQ(publishes->value(), publishes_before + 2);
  EXPECT_EQ(rollbacks->value(), rollbacks_before + 1);
  EXPECT_EQ(open_latency->count(), opens_before + 1);
  EXPECT_GE(versions->value(), 1.0);
}

// --------------------------------------------------------------------------
// Concurrent publish/query hammer (exercised under TSan in CI)
// --------------------------------------------------------------------------

// Readers score continuously while a publisher hot-swaps versions and rolls
// back. Every response must be internally consistent (all herbs scored by
// the same embedding table) and attributable to exactly one version that
// was published at some point — a torn swap would produce a mixed-version
// score vector, a dropped query a non-OK status.
TEST(ModelManagerHammerTest, ConcurrentPublishAndQuery) {
  constexpr int kVersions = 24;
  constexpr int kReaders = 4;

  auto manager_or = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager_or.ok());
  ModelManager* manager = manager_or->get();
  ASSERT_TRUE(manager->Publish(ConstantCheckpoint("hammer", 1.0), "v1").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> responses{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::vector<int> symptoms = {r % static_cast<int>(kSymptoms)};
      while (!stop.load(std::memory_order_relaxed)) {
        const Response response = DenseScores(*manager, "hammer", symptoms);
        if (!response.ok() || response.scores.size() != kHerbs) {
          failures.fetch_add(1);
          continue;
        }
        const double first = response.scores[0];
        // (a) internally consistent: one embedding table scored all herbs.
        for (double s : response.scores) {
          if (s != first) failures.fetch_add(1);
        }
        // (b) attributable: matches ExpectedScore(v) for an integer version
        // value v in [1, kVersions].
        const double v = std::sqrt(first / static_cast<double>(kDim));
        const double rounded = std::round(v);
        if (rounded < 1.0 || rounded > kVersions ||
            first != ExpectedScore(rounded)) {
          failures.fetch_add(1);
        }
        responses.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publisher: a stream of new versions (embedding values cycling through
  // [1, kVersions]) with occasional rollbacks, kept running until the
  // readers have scored plenty of queries across many swaps.
  constexpr std::uint64_t kMinResponses = 2000;
  int publish_count = 0;
  for (int i = 2; responses.load() < kMinResponses || i < kVersions; ++i) {
    ASSERT_LT(i, 100000) << "readers starved";  // runaway guard
    const double value = 1.0 + (i % kVersions);
    std::string version = "v";
    version += std::to_string(i);
    ASSERT_TRUE(
        manager->Publish(ConstantCheckpoint("hammer", value), version).ok());
    ++publish_count;
    if (i % 5 == 0) {
      ASSERT_TRUE(manager->Rollback("hammer").ok());
      // Re-publish under a fresh version id (the rolled-back id was
      // dropped from history, so it is reusable; use a suffix to keep
      // every publish unique).
      version += "r";
      ASSERT_TRUE(
          manager->Publish(ConstantCheckpoint("hammer", value), version).ok());
      ++publish_count;
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(responses.load(), kMinResponses);
  EXPECT_GT(publish_count, kVersions);
}

// --------------------------------------------------------------------------
// Request routing (Handle / SubmitRequest)
// --------------------------------------------------------------------------

TEST(ModelManagerRoutingTest, EmptyModelResolvesToSoleHostedModel) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("only", 1.0), "v1").ok());

  Request request;
  request.symptoms = {0, 2};
  request.top_k = 3;
  const Response response = (*manager)->Handle(request);
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.model, "only");
  EXPECT_EQ(response.version, "v1");
  EXPECT_EQ(response.herb_ids.size(), 3u);

  const Response async = (*manager)->SubmitRequest(request).get();
  ASSERT_TRUE(async.ok()) << async.message;
  EXPECT_EQ(async.herb_ids, response.herb_ids);
}

TEST(ModelManagerRoutingTest, EmptyModelIsAmbiguousWithSeveralHosted) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("a", 1.0), "v1").ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("b", 2.0), "v1").ok());

  Request request;
  request.symptoms = {0};
  request.top_k = 3;
  EXPECT_EQ((*manager)->Handle(request).status,
            serve::StatusCode::kInvalidArgument);
  EXPECT_EQ((*manager)->SubmitRequest(request).get().status,
            serve::StatusCode::kInvalidArgument);

  // Naming the model disambiguates.
  request.model = "b";
  const Response response = (*manager)->Handle(request);
  ASSERT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(response.model, "b");
}

TEST(ModelManagerRoutingTest, NoModelsMeansUnavailable) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  Request request;
  request.symptoms = {0};
  request.top_k = 3;
  EXPECT_EQ((*manager)->Handle(request).status,
            serve::StatusCode::kUnavailable);
  EXPECT_EQ((*manager)->SubmitRequest(request).get().status,
            serve::StatusCode::kUnavailable);

  // Unknown names route like Engine(): kUnavailable on the Response.
  request.model = "nope";
  EXPECT_EQ((*manager)->Handle(request).status,
            serve::StatusCode::kUnavailable);
}

TEST(ModelManagerRoutingTest, CallbackSubmitFiresOnceWithTheFutureResponse) {
  auto manager = ModelManager::Create(QuietOptions());
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->Publish(ConstantCheckpoint("herbs", 1.0), "v1").ok());

  // Each callback counts its calls and hands over its first Response.
  struct Probe {
    std::atomic<int> calls{0};
    std::promise<Response> first;
  };
  std::vector<std::shared_ptr<Probe>> probes;
  const auto submit = [&](const Request& request) {
    auto probe = std::make_shared<Probe>();
    (*manager)->SubmitRequest(request, [probe](Response response) {
      if (probe->calls.fetch_add(1) == 0) {
        probe->first.set_value(std::move(response));
      }
    });
    probes.push_back(probe);
    return probe;
  };

  Request unknown;
  unknown.symptoms = std::vector<int>{0};
  unknown.top_k = 3;
  unknown.model = "nope";
  auto routed = submit(unknown);
  // Routing failures answer before SubmitRequest returns.
  EXPECT_EQ(routed->calls.load(), 1);
  const Response unknown_response = routed->first.get_future().get();
  const Response unknown_future = (*manager)->SubmitRequest(unknown).get();
  EXPECT_EQ(unknown_response.status, serve::StatusCode::kUnavailable);
  EXPECT_EQ(unknown_response.status, unknown_future.status);
  EXPECT_EQ(unknown_response.message, unknown_future.message);

  Request ok;
  ok.symptoms = std::vector<int>{0, 2};
  ok.top_k = 3;
  ok.request_id = "mm-cb";
  const Response ok_future = (*manager)->SubmitRequest(ok).get();
  const Response ok_response = submit(ok)->first.get_future().get();
  ASSERT_TRUE(ok_response.ok()) << ok_response.message;
  EXPECT_EQ(ok_response.herb_ids, ok_future.herb_ids);
  EXPECT_EQ(ok_response.request_id, "mm-cb");
  EXPECT_EQ(ok_response.model, "herbs");
  EXPECT_EQ(ok_response.version, "v1");

  (*manager)->Shutdown();  // drains: every callback has fired by now
  for (const auto& probe : probes) EXPECT_EQ(probe->calls.load(), 1);
}

}  // namespace
}  // namespace serve
}  // namespace smgcn
