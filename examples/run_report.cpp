// End-to-end observability demo: trace timeline + training telemetry +
// run report, the full PR-5 observability surface in one binary.
//
// Trains a small SMGCN model with tracing enabled and per-epoch telemetry
// streaming to JSONL (including held-out ranking metrics via the model's
// scorer factory), serves a burst of queries through a ServingEngine with
// an aggressive slow-query threshold, then writes three artifacts into the
// output directory (argv[1], default "."):
//
//   trace.json      — Chrome trace-event timeline (chrome://tracing or
//                     https://ui.perfetto.dev)
//   telemetry.jsonl — one JSON record per training epoch
//   report.md       — registry snapshot (serving counters and latency
//                     included) + telemetry tail + trace stats +
//                     slow-query table
//
// Run: ./build/examples/run_report [output_dir]
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "src/core/smgcn_model.h"
#include "src/core/train_telemetry.h"
#include "src/data/split.h"
#include "src/data/tcm_generator.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/serve/engine.h"
#include "src/util/logging.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  using namespace smgcn;

  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::string trace_path = out_dir + "/trace.json";
  const std::string telemetry_path = out_dir + "/telemetry.jsonl";
  const std::string report_path = out_dir + "/report.md";

  obs::trace::SetCurrentThreadName("main");
  obs::trace::Start();

  // --- Data: a small synthetic TCM corpus ----------------------------------
  data::TcmGeneratorConfig gen_config;
  gen_config.num_symptoms = 40;
  gen_config.num_herbs = 60;
  gen_config.num_syndromes = 8;
  gen_config.num_prescriptions = 600;
  data::TcmGenerator generator(gen_config);
  auto corpus = generator.Generate();
  SMGCN_CHECK_OK(corpus.status());
  Rng rng(7);
  auto split = data::SplitCorpus(*corpus, 0.85, &rng);
  SMGCN_CHECK_OK(split.status());

  // --- Train with telemetry streaming to JSONL -----------------------------
  core::TrainTelemetryOptions telemetry_options;
  telemetry_options.jsonl_path = telemetry_path;
  telemetry_options.eval_corpus = &split->test;
  auto telemetry = core::TrainTelemetry::Create(telemetry_options);
  SMGCN_CHECK_OK(telemetry.status());

  core::ModelConfig model_config;
  model_config.embedding_dim = 16;
  model_config.layer_dims = {32, 32};
  model_config.thresholds = {2, 5};
  core::TrainConfig train_config;
  train_config.learning_rate = 3e-3;
  train_config.batch_size = 128;
  train_config.epochs = 8;
  train_config.log_every = 0;

  core::SmgcnModel model(model_config, train_config);
  model.AttachTelemetry(telemetry->get());
  SMGCN_CHECK_OK(model.Fit(split->train));

  const std::size_t epochs_run = model.train_summary().epoch_losses.size();
  SMGCN_CHECK_EQ((*telemetry)->records().size(), epochs_run)
      << "telemetry must hold exactly one record per epoch";
  SMGCN_CHECK_EQ(model.train_summary().epoch_seconds.size(), epochs_run);
  std::printf("trained %zu epochs; %zu telemetry records -> %s\n", epochs_run,
              (*telemetry)->records().size(), telemetry_path.c_str());

  // --- Serve a burst of queries with a hair-trigger slow-query log ---------
  auto checkpoint = model.ExportCheckpoint();
  SMGCN_CHECK_OK(checkpoint.status());
  serve::ServingEngineOptions engine_options;
  engine_options.max_batch_size = 16;
  // Microscopic threshold so the demo always captures slow-query records.
  engine_options.slow_query_threshold_ms = 1e-3;
  auto snapshot = serve::MakeModelSnapshot(*std::move(checkpoint), "v1");
  SMGCN_CHECK_OK(snapshot.status());
  auto engine = serve::ServingEngine::CreateFromSnapshot(*std::move(snapshot),
                                                         engine_options);
  SMGCN_CHECK_OK(engine.status());

  Rng query_rng(13);
  std::vector<std::future<serve::Response>> futures;
  for (int q = 0; q < 64; ++q) {
    serve::Request request;
    const int n = 2 + static_cast<int>(query_rng.UniformInt(0, 3));
    for (int s = 0; s < n; ++s) {
      request.symptoms.push_back(static_cast<int>(query_rng.UniformInt(
          0, static_cast<std::int64_t>(gen_config.num_symptoms) - 1)));
    }
    request.top_k = 10;
    futures.push_back((*engine)->SubmitRequest(std::move(request)));
  }
  std::size_t answered = 0;
  for (auto& future : futures) {
    if (future.get().ok()) ++answered;
  }
  (*engine)->Shutdown();
  std::printf("served %zu/%zu async queries; %llu slow-query records\n",
              answered, futures.size(),
              static_cast<unsigned long long>(
                  (*engine)->slow_query_log().total_recorded()));

  // --- Export the three artifacts ------------------------------------------
  obs::trace::Stop();
  SMGCN_CHECK(obs::trace::WriteChromeTrace(trace_path))
      << "failed to write " << trace_path;
  const obs::trace::TraceStats trace_stats = obs::trace::Stats();
  std::printf("trace: %llu events emitted, %llu retained, %llu dropped, "
              "%zu threads -> %s\n",
              static_cast<unsigned long long>(trace_stats.emitted),
              static_cast<unsigned long long>(trace_stats.retained),
              static_cast<unsigned long long>(trace_stats.dropped),
              trace_stats.threads, trace_path.c_str());

  // The engine's counters and latency histogram are registry instruments,
  // which WriteRunReport renders itself; only the slow-query log needs its
  // own section.
  std::vector<obs::RunReportSection> sections;
  sections.push_back(
      {"Slow queries", (*engine)->slow_query_log().RenderMarkdown()});
  obs::RunReportOptions report_options;
  report_options.title = "SMGCN demo run";
  SMGCN_CHECK(obs::WriteRunReport(report_path, obs::Registry::Global(),
                                  (*telemetry)->JsonLines(), sections,
                                  report_options))
      << "failed to write " << report_path;
  std::printf("report -> %s\n", report_path.c_str());
  return 0;
}
