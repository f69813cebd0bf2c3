// Production-flavoured example: train SMGCN once, export it as a binary
// model artifact, publish it into a ModelManager and drive the serving
// engine with a concurrent load generator — then hot-swap a second model
// version mid-load with zero downtime, roll it back, and print the serving
// stats. This is the model-lifecycle path production deploys use
// (docs/API_TOUR.md §Model lifecycle).
//
// Run: ./build/examples/checkpoint_serving
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/core/smgcn_model.h"
#include "src/data/split.h"
#include "src/data/tcm_generator.h"
#include "src/obs/metrics.h"
#include "src/obs/registry.h"
#include "src/serve/engine.h"
#include "src/serve/model_manager.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"

int main() {
  using namespace smgcn;

  // --- Offline: train and export -------------------------------------------
  data::TcmGeneratorConfig gen_config;
  gen_config.num_symptoms = 60;
  gen_config.num_herbs = 100;
  gen_config.num_syndromes = 10;
  gen_config.num_prescriptions = 1500;
  data::TcmGenerator generator(gen_config);
  auto corpus = generator.Generate();
  SMGCN_CHECK_OK(corpus.status());

  Rng rng(1);
  auto split = data::SplitCorpus(*corpus, 0.9, &rng);
  SMGCN_CHECK_OK(split.status());

  core::ModelConfig model_config;
  model_config.embedding_dim = 32;
  model_config.layer_dims = {64, 64};
  model_config.thresholds = {8, 15};
  core::TrainConfig train_config;
  train_config.learning_rate = 2e-3;
  train_config.epochs = 25;
  train_config.batch_size = 256;
  train_config.validation_fraction = 0.1;
  train_config.patience = 5;

  core::SmgcnModel model(model_config, train_config);
  SMGCN_CHECK_OK(model.Fit(split->train));
  std::printf("trained: %zu epochs run, best epoch %zu%s\n",
              model.train_summary().epoch_losses.size(),
              model.train_summary().best_epoch,
              model.train_summary().stopped_early ? " (early stop)" : "");

  // The training side writes the legacy text checkpoint, then the converter
  // turns it into the mmap-able binary artifact serving opens — the same
  // migration path a pre-artifact deployment would follow.
  const std::string checkpoint_path = "/tmp/smgcn_serving.ckpt";
  const std::string artifact_v1 = "/tmp/smgcn_serving_v1.smga";
  auto checkpoint = model.ExportCheckpoint();
  SMGCN_CHECK_OK(checkpoint.status());
  SMGCN_CHECK_OK(core::SaveInferenceCheckpoint(*checkpoint, checkpoint_path));
  SMGCN_CHECK_OK(
      core::ConvertCheckpointToArtifact(checkpoint_path, "v1", artifact_v1));
  {
    auto mapped = core::MappedArtifact::Open(artifact_v1);
    SMGCN_CHECK_OK(mapped.status());
    std::printf("artifact %s: model=%s version=%s format=v%u mmap=%s "
                "(%zu bytes)\n",
                artifact_v1.c_str(), mapped->model_name().c_str(),
                mapped->model_version().c_str(), mapped->format_version(),
                mapped->memory_mapped() ? "yes" : "no", mapped->file_bytes());
  }

  // A second version to deploy mid-load: the same model with its herb
  // embeddings nudged, standing in for a retrained checkpoint.
  const std::string artifact_v2 = "/tmp/smgcn_serving_v2.smga";
  {
    core::InferenceCheckpoint v2 = *checkpoint;
    for (std::size_t r = 0; r < v2.herb_embeddings.rows(); ++r) {
      for (std::size_t c = 0; c < v2.herb_embeddings.cols(); ++c) {
        v2.herb_embeddings(r, c) *= 1.01;
      }
    }
    SMGCN_CHECK_OK(core::SaveArtifact(v2, "v2", artifact_v2));
  }

  // --- Online: publish into a model manager --------------------------------
  serve::ModelManagerOptions manager_options;
  manager_options.engine_options.max_batch_size = 64;
  manager_options.engine_options.cache_capacity = 1024;
  auto manager = serve::ModelManager::Create(manager_options);
  SMGCN_CHECK_OK(manager.status());
  auto receipt = (*manager)->PublishArtifact(artifact_v1);
  SMGCN_CHECK_OK(receipt.status());
  const std::string model_name = receipt->model;
  auto engine = (*manager)->Engine(model_name);
  SMGCN_CHECK_OK(engine.status());
  std::printf("serving model '%s', active version %s: %zu symptoms, "
              "%zu herbs\n",
              model_name.c_str(), (*engine)->active_version().c_str(),
              (*engine)->store().num_symptoms(),
              (*engine)->store().num_herbs());

  // Sanity: the engine's batched path must reproduce the checkpoint
  // recommender's per-query scores exactly.
  auto direct = core::CheckpointRecommender::FromCheckpoint(*checkpoint);
  SMGCN_CHECK_OK(direct.status());
  serve::Request probe_request;
  probe_request.symptoms = split->test.at(0).symptoms;
  probe_request.top_k = 10;
  const serve::Response probe_response = (*engine)->Handle(probe_request);
  SMGCN_CHECK(probe_response.ok()) << probe_response.message;
  auto direct_top = direct->Recommend(probe_request.symptoms, 10);
  SMGCN_CHECK_OK(direct_top.status());
  SMGCN_CHECK(probe_response.herb_ids == *direct_top)
      << "engine and per-query paths disagree";
  std::printf("probe query agrees with the per-query path; top herb: %s\n\n",
              corpus->herb_vocab()
                  .Name(static_cast<int>(probe_response.herb_ids.front()))
                  .c_str());

  // --- Load generation with a mid-flight hot swap --------------------------
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 2000;
  std::printf("load test: %d clients x %d async queries, hot-swapping to v2 "
              "mid-load...\n",
              kClients, kQueriesPerClient);
  Stopwatch load_clock;
  serve::ServingEngine* live = *engine;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([live, &split, c] {
      Rng client_rng(100 + c);
      std::vector<std::future<serve::Response>> futures;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        // Skewed sampling: a small hot set dominates, like real traffic.
        const auto pick = static_cast<std::size_t>(client_rng.UniformInt(
            0, client_rng.Bernoulli(0.7)
                   ? static_cast<int>(split->test.size()) / 10
                   : static_cast<int>(split->test.size()) - 1));
        serve::Request request;
        request.symptoms = split->test.at(pick).symptoms;
        request.top_k = 10;
        futures.push_back(live->SubmitRequest(std::move(request)));
      }
      for (auto& future : futures) {
        const serve::Response response = future.get();
        SMGCN_CHECK(response.ok()) << response.message;
      }
    });
  }

  // Deploy v2 while the clients are hammering the engine: in-flight queries
  // finish on v1, new ones route to v2, nobody is dropped or paused.
  auto swap_receipt = (*manager)->PublishArtifact(artifact_v2);
  SMGCN_CHECK_OK(swap_receipt.status());
  std::printf("hot-swapped to version %s (in-flight queries finish on v1)\n",
              swap_receipt->version.c_str());

  for (auto& client : clients) client.join();
  const double load_seconds = load_clock.ElapsedSeconds();

  // --- Rollback and wrap up -------------------------------------------------
  SMGCN_CHECK_OK((*manager)->Rollback(model_name));
  auto active = (*manager)->ActiveVersion(model_name);
  SMGCN_CHECK_OK(active.status());
  std::printf("rolled back; active version is %s again\n", active->c_str());
  for (const auto& info : (*manager)->ListModels()) {
    for (const auto& version : info.versions) {
      std::printf("  retained %s/%s%s\n", info.name.c_str(),
                  version.version.c_str(), version.active ? " (active)" : "");
    }
  }

  (*manager)->Shutdown();  // drain: every future above has resolved

  std::printf("\nserved %d queries in %.2fs (%.0f QPS end-to-end)\n",
              kClients * kQueriesPerClient, load_seconds,
              kClients * kQueriesPerClient / load_seconds);
  // The engine's summary, read from its registry scope: the same
  // instruments /metrics and the run report export.
  obs::Registry& registry = obs::Registry::Global();
  const std::string& scope = live->obs_prefix();
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(
        registry.GetCounter(scope + name)->value());
  };
  const obs::Histogram* latency =
      registry.GetHistogram(scope + "latency.seconds");
  std::printf("engine %s: queries=%llu batches=%llu | latency ms p50=%.3f "
              "p99=%.3f | cache hits=%llu misses=%llu\n",
              scope.c_str(), count("queries"), count("batches"),
              latency->Percentile(0.50) * 1e3, latency->Percentile(0.99) * 1e3,
              count("cache.hits"), count("cache.misses"));
  return 0;
}
