// Serving throughput/latency benchmark: the per-query CheckpointRecommender
// loop vs. the engine's batched-GEMM path vs. fully cached serving, at
// paper-scale dimensions (360 symptoms, 753 herbs; SMGCN's best embedding
// width 64 per Table VII). No training involved — the checkpoint is
// synthetic, which isolates pure serving cost.
//
// Acceptance bars: the batched GEMM must beat the per-query loop on batches
// of >= 8 queries (ISSUE 1), the f32 scoring path must deliver >= 1.5x the
// f64 path's QPS at the widest batch (ISSUE 7), and the int8 path must be at
// least as fast as f32 and >= 4x f64 at the widest batch (ISSUE 8; the
// boost_vs_f64 column records the measured factors). Writes
// bench_results/serving_throughput.csv.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/registry.h"
#include "src/serve/engine.h"
#include "src/tensor/kernels.h"
#include "src/util/csv.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace bench {
namespace {

constexpr std::size_t kNumSymptoms = 360;  // paper's corpus scale
constexpr std::size_t kNumHerbs = 753;
constexpr std::size_t kDim = 64;
constexpr std::size_t kNumQueries = 4096;
constexpr std::size_t kDistinctQueries = 512;  // repeats make cache hits
constexpr std::size_t kTopK = 20;

core::InferenceCheckpoint MakeCheckpoint(bool with_herb_bipar = false) {
  Rng rng(20260806);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "bench-smgcn";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(kNumSymptoms, kDim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(kNumHerbs, kDim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = true;
  ckpt.si_weight = tensor::Matrix::RandomNormal(kDim, kDim, 0.0, 0.3, &rng);
  ckpt.si_bias = tensor::Matrix::RandomNormal(1, kDim, 0.0, 0.3, &rng);
  if (with_herb_bipar) {
    ckpt.has_herb_bipar = true;
    ckpt.herb_bipar =
        tensor::Matrix::RandomNormal(kNumHerbs, kDim, 0.0, 0.3, &rng);
  }
  return ckpt;
}

/// Query stream mirroring real prescriptions: 3-8 symptoms, Zipf-skewed
/// popularity, with repeats drawn from a pool of distinct queries.
std::vector<std::vector<int>> MakeQueryStream() {
  Rng rng(42);
  ZipfDistribution zipf(kNumSymptoms, 0.8);
  std::vector<std::vector<int>> pool;
  for (std::size_t i = 0; i < kDistinctQueries; ++i) {
    const std::size_t len = static_cast<std::size_t>(rng.UniformInt(3, 8));
    std::vector<int> q;
    for (std::size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<int>(zipf.Sample(&rng)));
    }
    pool.push_back(std::move(q));
  }
  std::vector<std::vector<int>> stream;
  stream.reserve(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    stream.push_back(pool[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(kDistinctQueries) - 1))]);
  }
  return stream;
}

struct Measurement {
  std::string mode;
  std::size_t batch_size = 0;
  double total_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// QPS relative to the f64 batched GEMM at the same batch size; 0 for
  /// rows where the comparison is meaningless (the f64 rows themselves).
  double boost_vs_f64 = 0.0;
};

/// Full passes per mode: the fastest pass is reported. On a shared host,
/// one-shot timings swing by >10% from scheduler/frequency interference;
/// the minimum over a few passes is the standard least-interference
/// estimate, and it is what the acceptance checks below compare (the
/// latency percentiles come from the same winning pass).
constexpr int kPassesPerMode = 3;

using BatchOp = std::function<void(const std::vector<std::vector<int>>&)>;

/// One timed pass of `queries` through `op` at the given batch size.
Measurement RunOnePass(const std::string& mode, std::size_t batch_size,
                       const std::vector<std::vector<int>>& queries,
                       const BatchOp& op) {
  obs::Histogram latency;
  Stopwatch total;
  std::size_t begin = 0;
  while (begin < queries.size()) {
    const std::size_t end = std::min(begin + batch_size, queries.size());
    const std::vector<std::vector<int>> batch(queries.begin() + begin,
                                              queries.begin() + end);
    Stopwatch watch;
    op(batch);
    latency.Record(watch.ElapsedSeconds());
    begin = end;
  }
  Measurement m;
  m.mode = mode;
  m.batch_size = batch_size;
  m.total_ms = total.ElapsedMillis();
  m.qps = static_cast<double>(queries.size()) / (m.total_ms / 1e3);
  m.p50_ms = latency.Percentile(0.50) * 1e3;
  m.p99_ms = latency.Percentile(0.99) * 1e3;
  return m;
}

/// Measures several modes at one batch size with PAIRED passes: pass k of
/// every mode runs back-to-back before pass k+1 of any. The acceptance
/// checks below are QPS *ratios* between modes; on a shared host the load
/// drifts on a seconds scale, so measuring the modes minutes apart turns
/// that drift straight into ratio error. Round-robin passes sample every
/// mode under (nearly) the same interference, and the per-mode minimum
/// still rejects one-off spikes.
std::vector<Measurement> MeasureBatchedPaired(
    const std::vector<std::string>& modes, std::size_t batch_size,
    const std::vector<std::vector<int>>& queries,
    const std::vector<BatchOp>& ops) {
  std::vector<Measurement> best(ops.size());
  for (int pass = 0; pass < kPassesPerMode; ++pass) {
    for (std::size_t m = 0; m < ops.size(); ++m) {
      Measurement cur = RunOnePass(modes[m], batch_size, queries, ops[m]);
      if (pass == 0 || cur.total_ms < best[m].total_ms) best[m] = cur;
    }
  }
  return best;
}

/// An engine serving `checkpoint` frozen into a snapshot at `precision`.
Result<std::unique_ptr<serve::ServingEngine>> ServeCheckpoint(
    core::InferenceCheckpoint checkpoint,
    const serve::ServingEngineOptions& options,
    tensor::Precision precision = tensor::Precision::kFloat64) {
  ASSIGN_OR_RETURN(
      std::shared_ptr<const serve::ModelSnapshot> snapshot,
      serve::MakeModelSnapshot(std::move(checkpoint), "v1", precision));
  return serve::ServingEngine::CreateFromSnapshot(std::move(snapshot), options);
}

/// Answers one batch through the engine's Request path: dense scores when
/// `top_k` is 0, ranked top-k otherwise. Every response must be OK.
void HandleAll(const serve::ServingEngine& engine,
               const std::vector<std::vector<int>>& batch, std::size_t top_k,
               bool attribution = false) {
  std::vector<serve::Request> requests(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    requests[i].symptoms = batch[i];
    requests[i].top_k = top_k;
    requests[i].attribution = attribution;
  }
  for (const serve::Response& response : engine.HandleBatch(requests)) {
    SMGCN_CHECK(response.ok()) << response.message;
    SMGCN_CHECK(!attribution || response.attribution.has_value());
  }
}

/// Runs `queries` through `op` (which consumes one batch of the given size)
/// kPassesPerMode times and derives QPS plus per-batch latency percentiles
/// from the fastest pass.
template <typename Op>
Measurement MeasureBatched(const std::string& mode, std::size_t batch_size,
                           const std::vector<std::vector<int>>& queries,
                           Op&& op) {
  return MeasureBatchedPaired({mode}, batch_size, queries, {BatchOp(op)})[0];
}

bool Run() {
  PrintHeader("Serving throughput — per-query loop vs batched GEMM vs cache",
              "FMASH (arXiv:2503.05167) motivates fusion/scoring efficiency; "
              "SMGCN eq. 12-13 scoring is one batchable GEMM");
  std::printf("Serving corpus: %zu symptoms, %zu herbs, d=%zu, %zu queries "
              "(%zu distinct)\n\n",
              kNumSymptoms, kNumHerbs, kDim, kNumQueries, kDistinctQueries);

  auto recommender = core::CheckpointRecommender::FromCheckpoint(MakeCheckpoint());
  SMGCN_CHECK_OK(recommender.status());
  serve::ServingEngineOptions options;
  options.cache_capacity = 2048;
  auto engine = ServeCheckpoint(MakeCheckpoint(), options);
  SMGCN_CHECK_OK(engine.status());

  serve::ServingEngineOptions uncached = options;
  uncached.cache_capacity = 0;
  auto uncached_engine = ServeCheckpoint(MakeCheckpoint(), uncached);
  SMGCN_CHECK_OK(uncached_engine.status());

  auto f32_engine = ServeCheckpoint(MakeCheckpoint(), uncached,
                                    tensor::Precision::kFloat32);
  SMGCN_CHECK_OK(f32_engine.status());

  auto s8_engine =
      ServeCheckpoint(MakeCheckpoint(), uncached, tensor::Precision::kInt8);
  SMGCN_CHECK_OK(s8_engine.status());

  const std::vector<std::vector<int>> queries = MakeQueryStream();
  std::vector<Measurement> results;

  // Baseline: the old serving path — one Score per query, one thread.
  results.push_back(MeasureBatched(
      "per_query_loop", 1, queries, [&](const std::vector<std::vector<int>>& b) {
        for (const auto& q : b) SMGCN_CHECK_OK(recommender->Score(q).status());
      }));

  // The f64 / f32 / int8 engines at each fusion width, with paired passes
  // per width: the precision acceptance bars below are QPS ratios between
  // these three modes, so each trio shares its slice of host load. Each
  // batch is one dense-mode (top_k == 0) HandleBatch call.
  std::vector<Measurement> f64_rows, f32_rows, s8_rows;
  for (const std::size_t batch : {8u, 32u, 128u}) {
    std::vector<Measurement> trio = MeasureBatchedPaired(
        {StrFormat("batched_gemm_b%zu", batch),
         StrFormat("f32_%s_gemm_b%zu", tensor::kernels::ActiveName(), batch),
         StrFormat("int8_%s_gemm_b%zu", tensor::kernels::ActiveName(), batch)},
        batch, queries,
        {[&](const std::vector<std::vector<int>>& b) {
           HandleAll(**uncached_engine, b, 0);
         },
         [&](const std::vector<std::vector<int>>& b) {
           HandleAll(**f32_engine, b, 0);
         },
         [&](const std::vector<std::vector<int>>& b) {
           HandleAll(**s8_engine, b, 0);
         }});
    trio[1].boost_vs_f64 = trio[1].qps / trio[0].qps;
    trio[2].boost_vs_f64 = trio[2].qps / trio[0].qps;
    f64_rows.push_back(trio[0]);
    f32_rows.push_back(trio[1]);
    s8_rows.push_back(trio[2]);
  }
  for (const Measurement& m : f64_rows) results.push_back(m);
  for (const Measurement& m : f32_rows) results.push_back(m);

  // f32 on the forced-scalar fallback: isolates SIMD's share of the boost.
  {
    tensor::kernels::ForceScalar(true);
    Measurement m = MeasureBatched(
        "f32_scalar_gemm_b128", 128, queries,
        [&](const std::vector<std::vector<int>>& b) {
          HandleAll(**f32_engine, b, 0);
        });
    tensor::kernels::ForceScalar(false);
    m.boost_vs_f64 = m.qps / results[3].qps;
    results.push_back(m);
  }

  // int8 dispatched rows (measured in the paired trios above).
  for (const Measurement& m : s8_rows) results.push_back(m);

  // int8 on the forced-scalar fallback: the i32-accumulating reference
  // kernels, isolating SIMD's share of the int8 boost.
  {
    tensor::kernels::ForceScalar(true);
    Measurement m = MeasureBatched(
        "int8_scalar_gemm_b128", 128, queries,
        [&](const std::vector<std::vector<int>>& b) {
          HandleAll(**s8_engine, b, 0);
        });
    tensor::kernels::ForceScalar(false);
    m.boost_vs_f64 = m.qps / results[3].qps;
    results.push_back(m);
  }

  // Cached top-k serving: first pass warms, second pass measures.
  HandleAll(**engine, queries, kTopK);
  results.push_back(MeasureBatched(
      "cached_topk_b128", 128, queries,
      [&](const std::vector<std::vector<int>>& b) {
        HandleAll(**engine, b, kTopK);
      }));

  // Attribution overhead: the audit decomposition (src/audit) is opt-in per
  // request, so the flag-off Request path is the number the pre-feature
  // baseline is held against (within 2% at b=128; tracked in
  // EXPERIMENTS.md), while the flag-on path pays the extra bipar split,
  // per-symptom linearization and residual anchoring for every served herb.
  // Measured as a paired pair on a bipar-carrying model so attribution does
  // its full work.
  {
    auto attr_engine =
        ServeCheckpoint(MakeCheckpoint(/*with_herb_bipar=*/true), uncached);
    SMGCN_CHECK_OK(attr_engine.status());
    std::vector<Measurement> pair = MeasureBatchedPaired(
        {"topk_b128_attr_off", "topk_b128_attr_on"}, 128, queries,
        {[&](const std::vector<std::vector<int>>& b) {
           HandleAll(**attr_engine, b, kTopK, /*attribution=*/false);
         },
         [&](const std::vector<std::vector<int>>& b) {
           HandleAll(**attr_engine, b, kTopK, /*attribution=*/true);
         }});
    results.push_back(pair[0]);
    results.push_back(pair[1]);
  }

  TablePrinter table(
      {"mode", "batch", "total_ms", "qps", "p50_ms", "p99_ms", "boost_vs_f64"});
  CsvWriter csv({"mode", "batch_size", "total_ms", "qps", "p50_ms", "p99_ms",
                 "boost_vs_f64"});
  for (const Measurement& m : results) {
    const std::string boost =
        m.boost_vs_f64 > 0.0 ? StrFormat("%.2f", m.boost_vs_f64) : "";
    table.AddRow({m.mode, std::to_string(m.batch_size),
                  StrFormat("%.1f", m.total_ms), StrFormat("%.0f", m.qps),
                  StrFormat("%.4f", m.p50_ms), StrFormat("%.4f", m.p99_ms),
                  boost});
    SMGCN_CHECK_OK(csv.AddRow({m.mode, std::to_string(m.batch_size),
                               StrFormat("%.3f", m.total_ms),
                               StrFormat("%.1f", m.qps),
                               StrFormat("%.5f", m.p50_ms),
                               StrFormat("%.5f", m.p99_ms), boost}));
  }
  table.Print();
  WriteResultsCsv("serving_throughput", csv);

  obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t hits =
      registry.GetCounter((*engine)->obs_prefix() + "cache.hits")->value();
  const std::uint64_t misses =
      registry.GetCounter((*engine)->obs_prefix() + "cache.misses")->value();
  std::printf("\ncached pass: hits=%llu misses=%llu hit_rate=%.1f%%\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses));

  std::printf("\nattribution overhead (b=128 top-k): off %.0f qps, on %.0f "
              "qps (opt-in cost %.1f%%)\n",
              results[13].qps, results[14].qps,
              (results[13].qps / results[14].qps - 1.0) * 100.0);

  std::printf("\nShape checks (ISSUE 1 + ISSUE 7 + ISSUE 8 acceptance):\n");
  // Row map: 0 per_query, 1-3 f64 gemm b8/b32/b128, 4-6 f32 dispatched
  // b8/b32/b128, 7 f32 forced-scalar b128, 8-10 int8 dispatched b8/b32/b128,
  // 11 int8 forced-scalar b128, 12 cached, 13-14 top-k attribution off/on.
  bool ok = true;
  ok &= ShapeCheck("batched GEMM (b=8) beats the per-query loop on QPS",
                   results[1].qps, results[0].qps);
  ok &= ShapeCheck("batched GEMM (b=128) beats the per-query loop on QPS",
                   results[3].qps, results[0].qps);
  ok &= ShapeCheck("f32 scoring (b=128) is >= 1.5x the f64 path on QPS",
                   results[6].qps, 1.5 * results[3].qps);
  ok &= ShapeCheck("int8 scoring (b=128) is >= the f32 path on QPS",
                   results[10].qps, results[6].qps);
  ok &= ShapeCheck("int8 scoring (b=128) is >= 4x the f64 path on QPS",
                   results[10].qps, 4.0 * results[3].qps);
  ok &= ShapeCheck("cached serving beats the uncached batched path on QPS",
                   results[12].qps, results[3].qps);
  // Attribution must stay pay-for-what-you-use: requests that don't ask for
  // it ride the batched path at full speed (the flag-off number is held
  // against the pre-feature baseline in EXPERIMENTS.md, within 2% at
  // b=128). The flag-on path pays the per-herb linearization deliberately
  // — it is an audit surface, priced per request — so it is reported above
  // but not gated.
  ok &= ShapeCheck("attribution-off top-k (b=128) beats the per-query loop "
                   "on QPS",
                   results[13].qps, results[0].qps);
  return ok;
}

}  // namespace
}  // namespace bench
}  // namespace smgcn

int main() { return smgcn::bench::Run() ? 0 : 1; }
