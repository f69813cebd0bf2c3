// Tests for src/serve: query canonicalization, the embedding store's
// batched scoring (bit-identical to CheckpointRecommender::Score), the
// sharded LRU cache, and the ServingEngine's sync, async and shutdown
// behaviour through the serve::Request surface, read back from the obs
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/eval/metrics.h"
#include "src/obs/registry.h"
#include "src/serve/cache.h"
#include "src/serve/embedding_store.h"
#include "src/serve/engine.h"
#include "src/serve/query.h"
#include "src/serve/slow_log.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace smgcn {
namespace serve {
namespace {

// A deterministic synthetic checkpoint: no training required to exercise
// the serving stack.
core::InferenceCheckpoint MakeCheckpoint(std::size_t num_symptoms = 24,
                                         std::size_t num_herbs = 40,
                                         std::size_t dim = 8,
                                         bool with_si_mlp = true,
                                         bool with_herb_bipar = false) {
  Rng rng(907);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "test-ckpt";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(num_symptoms, dim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = with_si_mlp;
  if (with_si_mlp) {
    ckpt.si_weight = tensor::Matrix::RandomNormal(dim, dim, 0.0, 0.5, &rng);
    ckpt.si_bias = tensor::Matrix::RandomNormal(1, dim, 0.0, 0.5, &rng);
  }
  if (with_herb_bipar) {
    ckpt.has_herb_bipar = true;
    ckpt.herb_bipar =
        tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 0.5, &rng);
  }
  return ckpt;
}

// --------------------------------------------------------------------------
// Canonicalization
// --------------------------------------------------------------------------

TEST(CanonicalizeTest, SortsAndDedups) {
  auto q = Canonicalize({3, 1, 3, 7, 1}, 10);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->symptom_ids, (std::vector<int>{1, 3, 7}));
}

TEST(CanonicalizeTest, EquivalentQueriesShareKey) {
  auto a = Canonicalize({3, 1, 3}, 10);
  auto b = Canonicalize({1, 3}, 10);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->symptom_ids, b->symptom_ids);
  EXPECT_EQ(a->key, b->key);
}

TEST(CanonicalizeTest, RejectsEmptyAndOutOfRange) {
  EXPECT_EQ(Canonicalize({}, 10).status().code(), smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({-1}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({10}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_TRUE(Canonicalize({9}, 10).ok());
}

TEST(CanonicalizeTest, EdgeCaseInputs) {
  // Duplicates in any order collapse to one canonical set and one key.
  auto dup = Canonicalize({5, 5, 5, 5}, 10);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->symptom_ids, (std::vector<int>{5}));
  EXPECT_EQ(dup->key, Canonicalize({5}, 10)->key);
  // Empty set stays invalid regardless of vocabulary size.
  EXPECT_EQ(Canonicalize({}, 0).status().code(), smgcn::StatusCode::kInvalidArgument);
  // One out-of-range id poisons an otherwise-valid set — no partial accept.
  EXPECT_EQ(Canonicalize({1, 3, 10, 5}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(Canonicalize({1, 3, -2, 5}, 10).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(CanonicalizeTest, KeysSeparateDistinctSets) {
  // Prefixes, permut-equivalent sets and near misses must hash apart.
  std::set<std::uint64_t> keys;
  std::vector<std::vector<int>> sets = {
      {1}, {1, 3}, {1, 3, 5}, {3, 5}, {1, 5}, {2, 3}, {0}, {5}};
  for (const auto& s : sets) keys.insert(Canonicalize(s, 10)->key);
  EXPECT_EQ(keys.size(), sets.size());
}

TEST(CanonicalizeTest, CombineKeySeparatesSalts) {
  const std::uint64_t key = Canonicalize({1, 2}, 10)->key;
  EXPECT_NE(CombineKey(key, 5), CombineKey(key, 10));
  EXPECT_NE(CombineKey(key, 5), key);
}

// --------------------------------------------------------------------------
// EmbeddingStore
// --------------------------------------------------------------------------

// Scores `batch` through the store's one scoring entry point, one row of
// herb scores per query.
std::vector<std::vector<double>> ScoreRows(
    const EmbeddingStore& store, const std::vector<CanonicalQuery>& batch) {
  std::vector<std::vector<double>> rows(batch.size());
  store.ScoreBatchInto(batch, rows.data());
  return rows;
}

TEST(EmbeddingStoreTest, BuildRejectsInvalidCheckpoint) {
  core::InferenceCheckpoint broken = MakeCheckpoint();
  broken.si_weight = tensor::Matrix(3, 3, 0.0);  // wrong shape vs dim=8
  EXPECT_FALSE(EmbeddingStore::Build(std::move(broken)).ok());
}

TEST(EmbeddingStoreTest, ExposesCheckpointShape) {
  auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_symptoms(), 24u);
  EXPECT_EQ(store->num_herbs(), 40u);
  EXPECT_EQ(store->dim(), 8u);
  EXPECT_TRUE(store->has_si_mlp());
  EXPECT_EQ(store->model_name(), "test-ckpt");
}

// The acceptance bar: every row of a batched score matrix must be
// bit-identical to scoring that query alone through the original
// CheckpointRecommender path.
TEST(EmbeddingStoreTest, BatchedScoresBitIdenticalToPerQueryScore) {
  for (bool with_mlp : {true, false}) {
    core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, with_mlp);
    auto reference = core::CheckpointRecommender::FromCheckpoint(ckpt);
    ASSERT_TRUE(reference.ok());
    auto store = EmbeddingStore::Build(std::move(ckpt));
    ASSERT_TRUE(store.ok());

    std::vector<std::vector<int>> raw_queries = {
        {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}};
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : raw_queries) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    ASSERT_EQ(scores.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(scores[i].size(), store->num_herbs());
      auto expected = reference->Score(batch[i].symptom_ids);
      ASSERT_TRUE(expected.ok());
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        // EXPECT_EQ, not NEAR: rows must match bit for bit.
        EXPECT_EQ(scores[i][h], (*expected)[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, ScoreOneMatchesBatchRow) {
  auto store = EmbeddingStore::Build(MakeCheckpoint());
  ASSERT_TRUE(store.ok());
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, store->num_symptoms());
  const std::vector<double> one = store->ScoreOne(q);
  const auto batch = ScoreRows(*store, {q, q});
  for (std::size_t h = 0; h < store->num_herbs(); ++h) {
    EXPECT_EQ(one[h], batch[0][h]);
    EXPECT_EQ(one[h], batch[1][h]);
  }
}

TEST(EmbeddingStoreTest, Float32BuildHalvesPayloadAndTracksReference) {
  core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, true);
  auto f64 = EmbeddingStore::Build(ckpt);
  auto f32 = EmbeddingStore::Build(std::move(ckpt), tensor::Precision::kFloat32);
  ASSERT_TRUE(f64.ok());
  ASSERT_TRUE(f32.ok());
  EXPECT_EQ(f64->precision(), tensor::Precision::kFloat64);
  EXPECT_EQ(f32->precision(), tensor::Precision::kFloat32);
  EXPECT_EQ(f32->payload_bytes() * 2, f64->payload_bytes());
  EXPECT_EQ(f32->num_herbs(), f64->num_herbs());

  // f32 scores track the f64 reference to single-precision accuracy; the
  // strict ranking guarantees live in kernels_test's parity suite.
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, f64->num_symptoms());
  const std::vector<double> ref = f64->ScoreOne(q);
  const std::vector<double> got = f32->ScoreOne(q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t h = 0; h < ref.size(); ++h) {
    EXPECT_NEAR(got[h], ref[h], 1e-4) << "herb " << h;
  }
}

TEST(EmbeddingStoreTest, Float32BatchRowsMatchSingleQueryRuns) {
  // The row-independence contract holds at f32 too: batched rows are
  // bit-identical to single-query runs within one backend.
  for (bool with_mlp : {true, false}) {
    auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8, with_mlp),
                                       tensor::Precision::kFloat32);
    ASSERT_TRUE(store.ok());
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : std::vector<std::vector<int>>{
             {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}}) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> one = store->ScoreOne(batch[i]);
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        EXPECT_EQ(scores[i][h], one[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, Int8BuildShrinksPayloadAndTracksReference) {
  // Embedding payload drops 8x (one int8 per f64 element plus one f32 scale
  // per row); the f32 SI-MLP copy keeps the total nearer 1/5 at this small
  // shape and approaches 1/8 as the catalog grows.
  core::InferenceCheckpoint ckpt = MakeCheckpoint(64, 256, 32, true);
  auto f64 = EmbeddingStore::Build(ckpt);
  auto s8 = EmbeddingStore::Build(std::move(ckpt), tensor::Precision::kInt8);
  ASSERT_TRUE(f64.ok());
  ASSERT_TRUE(s8.ok());
  EXPECT_EQ(s8->precision(), tensor::Precision::kInt8);
  EXPECT_EQ(s8->num_herbs(), f64->num_herbs());
  EXPECT_LT(s8->payload_bytes() * 5, f64->payload_bytes());

  core::InferenceCheckpoint no_mlp = MakeCheckpoint(64, 256, 32, false);
  auto f64_plain = EmbeddingStore::Build(no_mlp);
  auto s8_plain =
      EmbeddingStore::Build(std::move(no_mlp), tensor::Precision::kInt8);
  ASSERT_TRUE(f64_plain.ok());
  ASSERT_TRUE(s8_plain.ok());
  EXPECT_LT(s8_plain->payload_bytes() * 6, f64_plain->payload_bytes());

  // Quantized scores track the f64 reference to 8-bit accuracy — a few
  // percent of the catalog's score magnitude (two quantized operands, each
  // within 1/254 of its row absmax). The strict ranking guarantees live in
  // kernels_test's int8 parity suite.
  const CanonicalQuery q = *Canonicalize({2, 7, 11}, f64->num_symptoms());
  const std::vector<double> ref = f64->ScoreOne(q);
  const std::vector<double> got = s8->ScoreOne(q);
  ASSERT_EQ(got.size(), ref.size());
  double magnitude = 0.0;
  for (const double r : ref) magnitude = std::max(magnitude, std::abs(r));
  for (std::size_t h = 0; h < ref.size(); ++h) {
    EXPECT_NEAR(got[h], ref[h], 0.05 * magnitude) << "herb " << h;
  }
}

TEST(EmbeddingStoreTest, Int8BatchRowsMatchSingleQueryRuns) {
  // Same row-independence contract as f64/f32: within one backend, batched
  // int8 rows are bit-identical to single-query runs (with and without the
  // SI-MLP stage).
  for (bool with_mlp : {true, false}) {
    auto store = EmbeddingStore::Build(MakeCheckpoint(24, 40, 8, with_mlp),
                                       tensor::Precision::kInt8);
    ASSERT_TRUE(store.ok());
    std::vector<CanonicalQuery> batch;
    for (const auto& raw : std::vector<std::vector<int>>{
             {0}, {1, 2, 3}, {5, 9, 13, 21}, {23}, {2, 4, 6, 8, 10, 12}}) {
      batch.push_back(*Canonicalize(raw, store->num_symptoms()));
    }
    const auto scores = ScoreRows(*store, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> one = store->ScoreOne(batch[i]);
      for (std::size_t h = 0; h < store->num_herbs(); ++h) {
        EXPECT_EQ(scores[i][h], one[h])
            << "query " << i << " herb " << h << " mlp=" << with_mlp;
      }
    }
  }
}

TEST(EmbeddingStoreTest, Int8BuildFromArtifactServesStoredIntegers) {
  // BuildFromArtifact must serve the artifact's quantized payload verbatim:
  // scores from the artifact-backed store match a store built by
  // re-quantizing the dequantized checkpoint (bit for bit, because
  // dequantize -> requantize reproduces the stored integers exactly).
  core::InferenceCheckpoint ckpt = MakeCheckpoint(24, 40, 8, true);
  const std::string path = testing::TempDir() + "/smgcn_store8.smga";
  ASSERT_TRUE(
      core::SaveArtifact(ckpt, "v1", path, tensor::Precision::kInt8).ok());
  auto artifact = core::MappedArtifact::Open(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto from_artifact = EmbeddingStore::BuildFromArtifact(*artifact);
  ASSERT_TRUE(from_artifact.ok()) << from_artifact.status();
  EXPECT_EQ(from_artifact->precision(), tensor::Precision::kInt8);

  auto restored = artifact->ToCheckpoint();
  ASSERT_TRUE(restored.ok());
  auto rebuilt =
      EmbeddingStore::Build(std::move(*restored), tensor::Precision::kInt8);
  ASSERT_TRUE(rebuilt.ok());

  const CanonicalQuery q = *Canonicalize({2, 7, 11}, 24);
  const std::vector<double> a = from_artifact->ScoreOne(q);
  const std::vector<double> b = rebuilt->ScoreOne(q);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) EXPECT_EQ(a[h], b[h]);
}

// --------------------------------------------------------------------------
// Cache
// --------------------------------------------------------------------------

// The cache's registry instruments under its obs_prefix(), e.g. "hits".
std::uint64_t CacheCounter(const ShardedTopKCache& cache,
                           const std::string& name) {
  return obs::Registry::Global()
      .GetCounter(cache.obs_prefix() + name)
      ->value();
}

double CacheGauge(const ShardedTopKCache& cache, const std::string& name) {
  return obs::Registry::Global().GetGauge(cache.obs_prefix() + name)->value();
}

TEST(CacheTest, MissThenHit) {
  ShardedTopKCache cache(16);
  const std::vector<int> ids{1, 3};
  std::vector<std::size_t> out;
  EXPECT_FALSE(cache.Lookup(42, ids, 5, &out));
  cache.Insert(42, ids, 5, {7, 8, 9});
  ASSERT_TRUE(cache.Lookup(42, ids, 5, &out));
  EXPECT_EQ(out, (std::vector<std::size_t>{7, 8, 9}));
  const std::uint64_t hits = CacheCounter(cache, "hits");
  const std::uint64_t misses = CacheCounter(cache, "misses");
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(CacheGauge(cache, "size"), 1.0);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(hits) / static_cast<double>(hits + misses), 0.5);
}

TEST(CacheTest, DifferentKIsAMiss) {
  ShardedTopKCache cache(16);
  const std::vector<int> ids{1, 3};
  cache.Insert(42, ids, 5, {7, 8});
  std::vector<std::size_t> out;
  EXPECT_FALSE(cache.Lookup(42, ids, 10, &out));
}

TEST(CacheTest, HashCollisionVerifiedByIds) {
  ShardedTopKCache cache(16);
  cache.Insert(42, {1, 3}, 5, {7});
  std::vector<std::size_t> out;
  // Same key, different canonical ids: must not serve the other query's herbs.
  EXPECT_FALSE(cache.Lookup(42, {2, 4}, 5, &out));
}

TEST(CacheTest, EvictsLeastRecentlyUsed) {
  ShardedTopKCache cache(2);  // two entries, one shard
  cache.Insert(1, {1}, 5, {10});
  cache.Insert(2, {2}, 5, {20});
  std::vector<std::size_t> out;
  ASSERT_TRUE(cache.Lookup(1, {1}, 5, &out));  // refresh key 1
  cache.Insert(3, {3}, 5, {30});               // evicts key 2 (LRU)
  EXPECT_TRUE(cache.Lookup(1, {1}, 5, &out));
  EXPECT_FALSE(cache.Lookup(2, {2}, 5, &out));
  EXPECT_TRUE(cache.Lookup(3, {3}, 5, &out));
  EXPECT_EQ(CacheCounter(cache, "evictions"), 1u);
}

TEST(CacheTest, ClearDropsEntriesKeepsCounters) {
  ShardedTopKCache cache(8);
  cache.Insert(1, {1}, 5, {10});
  std::vector<std::size_t> out;
  ASSERT_TRUE(cache.Lookup(1, {1}, 5, &out));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, {1}, 5, &out));
  EXPECT_EQ(CacheGauge(cache, "size"), 0.0);
  EXPECT_EQ(CacheCounter(cache, "hits"), 1u);
}

TEST(CacheTest, SizeGaugeTracksEntries) {
  // The registry gauge is live, so /metrics and benches read the occupancy
  // without any call refreshing it.
  ShardedTopKCache cache(2);
  cache.Insert(1, {1}, 5, {10});
  cache.Insert(1, {1}, 5, {11});  // overwrite: still one entry
  cache.Insert(2, {2}, 5, {20});
  EXPECT_EQ(CacheGauge(cache, "size"), 2.0);
  cache.Insert(3, {3}, 5, {30});  // evicts: occupancy unchanged
  EXPECT_EQ(CacheGauge(cache, "size"), 2.0);
  cache.Clear();
  EXPECT_EQ(CacheGauge(cache, "size"), 0.0);
}

TEST(CacheTest, SmallCapacityHoldsEveryEntry) {
  // Keys congruent modulo 8 would share one shard of a sharded cache; a
  // 4-entry cache is one shard, an exact 4-entry LRU, and holds all four.
  ShardedTopKCache cache(4);
  EXPECT_EQ(cache.num_shards(), 1u);
  for (const std::uint64_t key : {0u, 8u, 16u, 24u}) {
    cache.Insert(key, {static_cast<int>(key)}, 5, {key});
  }
  std::vector<std::size_t> out;
  for (const std::uint64_t key : {0u, 8u, 16u, 24u}) {
    EXPECT_TRUE(cache.Lookup(key, {static_cast<int>(key)}, 5, &out)) << key;
  }
  EXPECT_EQ(CacheCounter(cache, "evictions"), 0u);
  EXPECT_EQ(CacheGauge(cache, "size"), 4.0);
  // The serving default keeps its layout: 8 shards of 512.
  ShardedTopKCache serving(4096);
  EXPECT_EQ(serving.num_shards(), 8u);
  EXPECT_EQ(CacheGauge(serving, "capacity"), 4096.0);
}

// --------------------------------------------------------------------------
// ServingEngine
// --------------------------------------------------------------------------

// `checkpoint` frozen into a servable snapshot.
std::shared_ptr<const ModelSnapshot> MakeSnapshot(
    core::InferenceCheckpoint checkpoint = MakeCheckpoint(),
    std::string version = "v1",
    tensor::Precision precision = tensor::Precision::kFloat64) {
  auto snapshot =
      MakeModelSnapshot(std::move(checkpoint), std::move(version), precision);
  SMGCN_CHECK(snapshot.ok()) << snapshot.status();
  return *std::move(snapshot);
}

std::unique_ptr<ServingEngine> MakeEngine(
    ServingEngineOptions options = {},
    std::shared_ptr<const ModelSnapshot> snapshot = MakeSnapshot()) {
  auto engine = ServingEngine::CreateFromSnapshot(std::move(snapshot), options);
  SMGCN_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// A request for `symptoms`: ranked top-k for k >= 1, dense scores for k == 0.
Request MakeRequest(std::vector<int> symptoms, std::size_t k) {
  Request request;
  request.symptoms = std::move(symptoms);
  request.top_k = k;
  return request;
}

std::vector<Request> MakeRequests(const std::vector<std::vector<int>>& queries,
                                  std::size_t k) {
  std::vector<Request> requests;
  for (const auto& symptoms : queries) {
    requests.push_back(MakeRequest(symptoms, k));
  }
  return requests;
}

// The engine's registry instruments, e.g. "batches" or "cache.hits".
std::uint64_t EngineCounter(const ServingEngine& engine,
                            const std::string& name) {
  return obs::Registry::Global()
      .GetCounter(engine.obs_prefix() + name)
      ->value();
}

double EngineGauge(const ServingEngine& engine, const std::string& name) {
  return obs::Registry::Global().GetGauge(engine.obs_prefix() + name)->value();
}

// Pins both drainers of `engine` with "pin"-tagged requests (see
// testutil::DrainerPin): requests submitted until Release() stay queued.
// The engine needs num_threads >= 2.
testutil::DrainerPin PinDrainers(ServingEngine* engine) {
  return testutil::DrainerPin([engine](std::function<void(Response)> done) {
    Request request = MakeRequest({1}, 3);
    request.request_id = "pin";
    engine->SubmitRequest(std::move(request), std::move(done));
  });
}

// Runs engine->Shutdown() on a thread of its own and returns that thread
// once the engine turns new requests away (answered kUnavailable before
// SubmitRequest returns), so the drain provably starts while the pin still
// holds everything queued. Probes admitted before that are appended to
// `probes`; the drain answers them too.
std::thread BeginShutdown(ServingEngine* engine,
                          std::vector<std::future<Response>>* probes) {
  std::thread shutter([engine] { engine->Shutdown(); });
  while (true) {
    std::future<Response> probe = engine->SubmitRequest(MakeRequest({1}, 5));
    if (probe.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(probe.get().status, StatusCode::kUnavailable);
      return shutter;
    }
    probes->push_back(std::move(probe));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServingEngineTest, CreateRejectsBadOptions) {
  ServingEngineOptions options;
  options.max_batch_size = 0;
  EXPECT_EQ(
      ServingEngine::CreateFromSnapshot(MakeSnapshot(), options)
          .status()
          .code(),
      smgcn::StatusCode::kInvalidArgument);
  EXPECT_EQ(ServingEngine::CreateFromSnapshot(nullptr).status().code(),
            smgcn::StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, ScoreBatchBitIdenticalToCheckpointRecommender) {
  core::InferenceCheckpoint ckpt = MakeCheckpoint();
  auto reference = core::CheckpointRecommender::FromCheckpoint(ckpt);
  ASSERT_TRUE(reference.ok());
  auto engine = MakeEngine({}, MakeSnapshot(std::move(ckpt)));

  const std::vector<std::vector<int>> queries = {
      {4, 2, 0}, {11}, {1, 3, 5, 7, 9}, {20, 22}};
  const std::vector<Response> batch =
      engine->HandleBatch(MakeRequests(queries, /*k=*/0));
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].message;
    EXPECT_EQ(batch[i].model, "test-ckpt");
    EXPECT_EQ(batch[i].version, "v1");
    const auto canonical = Canonicalize(queries[i], 24);
    auto expected = reference->Score(canonical->symptom_ids);
    ASSERT_TRUE(expected.ok());
    // Bit-identical, not approximately equal: both paths run the same
    // fixed-order kernels.
    EXPECT_EQ(batch[i].scores, *expected) << "query " << i;
  }
}

TEST(ServingEngineTest, HandleMatchesHandleBatchAndIsCanonical) {
  auto engine = MakeEngine();
  // {3,1,3} and {1,3} are the same query; both paths must agree.
  const Response a = engine->Handle(MakeRequest({3, 1, 3}, 10));
  const Response b = engine->Handle(MakeRequest({1, 3}, 10));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.herb_ids, b.herb_ids);
  const auto batch = engine->HandleBatch(MakeRequests({{3, 1, 3}, {1, 3}}, 10));
  ASSERT_TRUE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[0].herb_ids, a.herb_ids);
  EXPECT_EQ(batch[1].herb_ids, a.herb_ids);
}

TEST(ServingEngineTest, RepeatQueriesHitCache) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2, 3}, 10)).ok());
  // Same canonical set.
  ASSERT_TRUE(engine->Handle(MakeRequest({3, 2, 1, 1}, 10)).ok());
  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 1u);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 1u);
  // The second query must not have triggered another GEMM.
  EXPECT_EQ(EngineCounter(*engine, "batches"), 1u);
}

TEST(ServingEngineTest, EachKKeepsItsOwnCacheEntry) {
  // k is part of the cache key: asking one symptom set at k=5 and k=10
  // holds two entries, so going back to k=5 is a hit, not an overwrite.
  auto engine = MakeEngine();
  const Response five = engine->Handle(MakeRequest({1, 2, 3}, 5));
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2, 3}, 10)).ok());
  const std::uint64_t hits = EngineCounter(*engine, "cache.hits");
  const Response again = engine->Handle(MakeRequest({1, 2, 3}, 5));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), hits + 1);
  EXPECT_EQ(again.herb_ids, five.herb_ids);
  EXPECT_EQ(EngineCounter(*engine, "batches"), 2u);
}

TEST(ServingEngineTest, TopKBeyondCatalogClampsAndSharesOneCacheEntry) {
  // The checkpoint has 40 herbs. Any k >= 40 means "rank every herb": the
  // result must be all 40 ids (no error, no over-read), and different
  // over-catalog ks must unify into ONE cache entry. Before the clamp, each
  // k cached separately (the cache requires an exact k match), so the
  // second request below was a miss and a fresh GEMM.
  auto engine = MakeEngine();
  const std::size_t num_herbs = engine->store().num_herbs();
  ASSERT_EQ(num_herbs, 40u);

  const Response exact = engine->Handle(MakeRequest({1, 2, 3}, num_herbs));
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact.herb_ids.size(), num_herbs);
  std::set<std::size_t> distinct(exact.herb_ids.begin(), exact.herb_ids.end());
  EXPECT_EQ(distinct.size(), num_herbs);  // every herb exactly once

  const Response over = engine->Handle(MakeRequest({1, 2, 3}, num_herbs + 1));
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over.herb_ids, exact.herb_ids);
  const Response way_over = engine->Handle(MakeRequest({1, 2, 3}, 1000000));
  ASSERT_TRUE(way_over.ok());
  EXPECT_EQ(way_over.herb_ids, exact.herb_ids);

  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 1u);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 2u);
  // One GEMM served all three ks.
  EXPECT_EQ(EngineCounter(*engine, "batches"), 1u);
}

TEST(ServingEngineTest, SubmitRequestClampsTopKBeyondCatalog) {
  auto engine = MakeEngine();
  const std::size_t num_herbs = engine->store().num_herbs();
  const Response expected = engine->Handle(MakeRequest({2, 4}, num_herbs));
  ASSERT_TRUE(expected.ok());
  const Response result =
      engine->SubmitRequest(MakeRequest({2, 4}, num_herbs + 25)).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.herb_ids, expected.herb_ids);
}

TEST(ServingEngineTest, Float32SnapshotServes) {
  auto f32_engine = MakeEngine(
      {}, MakeSnapshot(MakeCheckpoint(), "v1", tensor::Precision::kFloat32));
  EXPECT_EQ(f32_engine->store().precision(), tensor::Precision::kFloat32);
  auto f64_engine = MakeEngine();

  const Response a = f32_engine->Handle(MakeRequest({1, 2, 3}, 10));
  const Response b = f64_engine->Handle(MakeRequest({1, 2, 3}, 10));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.herb_ids.size(), 10u);
  // Narrowing can swap near-tied neighbours; membership should still be
  // near-total (the strict thresholds live in kernels_test).
  std::set<std::size_t> a_set(a.herb_ids.begin(), a.herb_ids.end());
  std::size_t agree = 0;
  for (std::size_t id : b.herb_ids) agree += a_set.count(id);
  EXPECT_GE(agree, 9u);
}

// Ranked answers are picked straight off the kernel's score rows (float
// at f32/int8); they must be exactly the ids eval::TopK gives on the dense
// (widened) row, on both paths, at every precision and batch size, with
// cache hits and misses mixed in one batch.
TEST(ServingEngineTest, RankedIdsEqualTopKOfDenseRows) {
  constexpr std::size_t kTopK = 5;
  Rng rng(4242);
  std::vector<std::vector<int>> queries(128);
  for (auto& q : queries) {
    const std::size_t len = static_cast<std::size_t>(rng.UniformInt(1, 4));
    for (std::size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<int>(rng.UniformInt(0, 23)));
    }
  }
  for (const tensor::Precision precision :
       {tensor::Precision::kFloat64, tensor::Precision::kFloat32,
        tensor::Precision::kInt8}) {
    ServingEngineOptions options;
    options.cache_capacity = 1024;
    // One engine per path, each warmed with every third query, so both
    // paths see batches that mix cache hits and misses.
    auto sync_engine =
        MakeEngine(options, MakeSnapshot(MakeCheckpoint(), "v1", precision));
    auto async_engine =
        MakeEngine(options, MakeSnapshot(MakeCheckpoint(), "v1", precision));
    std::vector<std::vector<int>> warm;
    for (std::size_t i = 0; i < queries.size(); i += 3) {
      warm.push_back(queries[i]);
    }
    sync_engine->HandleBatch(MakeRequests(warm, kTopK));
    async_engine->HandleBatch(MakeRequests(warm, kTopK));

    for (const std::size_t b : {1u, 16u, 17u, 128u}) {
      const std::vector<std::vector<int>> batch(queries.begin(),
                                                queries.begin() + b);
      const std::vector<Response> dense =
          sync_engine->HandleBatch(MakeRequests(batch, /*k=*/0));
      const std::vector<Response> ranked =
          sync_engine->HandleBatch(MakeRequests(batch, kTopK));
      std::vector<std::future<Response>> async;
      for (const auto& q : batch) {
        async.push_back(async_engine->SubmitRequest(MakeRequest(q, kTopK)));
      }
      for (std::size_t i = 0; i < b; ++i) {
        ASSERT_TRUE(dense[i].ok()) << dense[i].message;
        ASSERT_TRUE(ranked[i].ok()) << ranked[i].message;
        const std::vector<std::size_t> expected =
            eval::TopK(dense[i].scores, kTopK);
        EXPECT_EQ(ranked[i].herb_ids, expected)
            << "precision " << static_cast<int>(precision) << " b=" << b
            << " query " << i;
        const Response answer = async[i].get();
        ASSERT_TRUE(answer.ok()) << answer.message;
        EXPECT_EQ(answer.herb_ids, expected)
            << "precision " << static_cast<int>(precision) << " b=" << b
            << " query " << i << " (async)";
      }
    }
    for (const ServingEngine* engine :
         {sync_engine.get(), async_engine.get()}) {
      EXPECT_GT(EngineCounter(*engine, "cache.hits"), 0u);
      EXPECT_GT(EngineCounter(*engine, "cache.misses"), warm.size());
    }
  }
}

// A 50-row dense batch is four GEMM blocks, the last one partial. On an
// SI-MLP model wide enough (d = 64) for the f64 MatMul to fan out on its
// own, every engine pool size and process-wide thread count gives the same
// bits, each row equals the query scored alone, and the only fan-out is the
// engine's own: kernels nested in its blocks run inline.
TEST(ServingEngineTest, DenseBlocksBitIdenticalAcrossThreadConfigs) {
  Rng rng(515);
  std::vector<std::vector<int>> queries(50);
  for (auto& q : queries) {
    const std::size_t len = static_cast<std::size_t>(rng.UniformInt(1, 5));
    for (std::size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<int>(rng.UniformInt(0, 23)));
    }
  }
  obs::Counter* fanouts =
      obs::Registry::Global().GetCounter("parallel.fanout_runs");
  for (const tensor::Precision precision :
       {tensor::Precision::kFloat64, tensor::Precision::kFloat32,
        tensor::Precision::kInt8}) {
    const auto snapshot =
        MakeSnapshot(MakeCheckpoint(24, 40, 64), "v1", precision);
    std::vector<Response> reference;
    for (const std::size_t engine_threads : {1u, 2u, 4u}) {
      for (const std::size_t kernel_threads : {1u, 4u}) {
        parallel::SetNumThreads(kernel_threads);
        ServingEngineOptions options;
        options.num_threads = engine_threads;
        auto engine = MakeEngine(options, snapshot);
        const std::uint64_t fanouts_before = fanouts->value();
        const std::vector<Response> batch =
            engine->HandleBatch(MakeRequests(queries, /*k=*/0));
        EXPECT_EQ(fanouts->value() - fanouts_before,
                  engine_threads > 1 ? 1u : 0u)
            << "engine threads " << engine_threads << ", kernel threads "
            << kernel_threads;
        if (reference.empty()) reference = batch;
        for (std::size_t i = 0; i < queries.size(); ++i) {
          ASSERT_TRUE(batch[i].ok()) << batch[i].message;
          EXPECT_EQ(batch[i].scores, reference[i].scores)
              << "precision " << static_cast<int>(precision)
              << ", engine threads " << engine_threads << ", kernel threads "
              << kernel_threads << ", query " << i;
          EXPECT_EQ(engine->Handle(MakeRequest(queries[i], 0)).scores,
                    batch[i].scores)
              << "query " << i;
        }
      }
    }
  }
  parallel::SetNumThreads(1);
}

TEST(ServingEngineTest, EnginesGetDistinctObsScopes) {
  auto a = MakeEngine();
  auto b = MakeEngine();
  EXPECT_NE(a->obs_prefix(), b->obs_prefix());
  // One engine's traffic must not leak into the other's instruments.
  ASSERT_TRUE(a->Handle(MakeRequest({1, 2}, 5)).ok());
  EXPECT_EQ(EngineCounter(*a, "queries"), 1u);
  EXPECT_EQ(EngineCounter(*b, "queries"), 0u);
}

TEST(ServingEngineTest, CacheDisabledStillServes) {
  ServingEngineOptions options;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);
  const Response a = engine->Handle(MakeRequest({1, 2}, 5));
  const Response b = engine->Handle(MakeRequest({1, 2}, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.herb_ids, b.herb_ids);
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 0u);
  EXPECT_EQ(EngineCounter(*engine, "batches"), 2u);
}

TEST(ServingEngineTest, SubmitRequestMatchesHandle) {
  auto engine = MakeEngine();
  const Response expected = engine->Handle(MakeRequest({2, 4, 6}, 8));
  ASSERT_TRUE(expected.ok());
  // Same canonical query.
  const Response result =
      engine->SubmitRequest(MakeRequest({6, 4, 2, 2}, 8)).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.herb_ids, expected.herb_ids);
}

TEST(ServingEngineTest, SubmitRequestRejectsMalformedImmediately) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({}, 5)).get().status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({-3}, 5)).get().status,
            StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, ConcurrentSubmitsFromManyThreads) {
  ServingEngineOptions options;
  options.max_batch_size = 16;
  auto engine = MakeEngine(options);

  // Ground truth computed via the synchronous path first.
  std::vector<std::vector<int>> queries;
  std::vector<std::vector<std::size_t>> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back({i % 24, (i * 7 + 1) % 24, (i * 3 + 2) % 24});
    const Response top = engine->Handle(MakeRequest(queries.back(), 10));
    ASSERT_TRUE(top.ok());
    expected.push_back(top.herb_ids);
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        const auto& q = queries[(t * kPerThread + i) % queries.size()];
        futures.push_back(engine->SubmitRequest(MakeRequest(q, 10)));
      }
      for (int i = 0; i < kPerThread; ++i) {
        const Response result = futures[i].get();
        const auto& want = expected[(t * kPerThread + i) % expected.size()];
        if (!result.ok() || result.herb_ids != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(EngineCounter(*engine, "queries"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Repeats must hit the cache.
  EXPECT_GT(EngineCounter(*engine, "cache.hits"), 0u);
}

TEST(ServingEngineTest, RequestPathHammeredUnderParallelKernels) {
  // Cache + stats audit under the multi-threaded kernels: a deliberately
  // tiny cache (constant evictions) is hammered by dense and ranked
  // HandleBatch and async SubmitRequest from several threads while the
  // process-wide parallel pool is live beside the engine's own.
  parallel::SetNumThreads(4);
  ServingEngineOptions options;
  options.max_batch_size = 8;
  options.num_threads = 3;
  options.cache_capacity = 6;  // forces eviction churn
  auto engine = MakeEngine(options);

  std::vector<std::vector<int>> queries;
  std::vector<std::vector<double>> expected_scores;
  std::vector<std::vector<std::size_t>> expected_topk;
  for (int i = 0; i < 16; ++i) {
    queries.push_back({i % 24, (i * 5 + 3) % 24});
    const Response scores = engine->Handle(MakeRequest(queries.back(), 0));
    ASSERT_TRUE(scores.ok());
    expected_scores.push_back(scores.scores);
    const Response top = engine->Handle(MakeRequest(queries.back(), 6));
    ASSERT_TRUE(top.ok());
    expected_topk.push_back(top.herb_ids);
  }

  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t base = static_cast<std::size_t>(t * kIters + i);
        const std::vector<std::vector<int>> batch = {
            queries[base % queries.size()], queries[(base + 5) % queries.size()],
            queries[(base + 11) % queries.size()]};
        if (i % 3 == 0) {
          const auto scores = engine->HandleBatch(MakeRequests(batch, 0));
          if (!scores[0].ok() ||
              scores[0].scores != expected_scores[base % queries.size()]) {
            mismatches.fetch_add(1);
            continue;
          }
        } else if (i % 3 == 1) {
          const auto top = engine->HandleBatch(MakeRequests(batch, 6));
          if (!top[0].ok() ||
              top[0].herb_ids != expected_topk[base % queries.size()]) {
            mismatches.fetch_add(1);
          }
        } else {
          const Response top =
              engine->SubmitRequest(MakeRequest(batch[0], 6)).get();
          if (!top.ok() ||
              top.herb_ids != expected_topk[base % queries.size()]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Counter coherence: every lookup is either a hit or a miss,
  // occupancy never exceeds the budget, and churn actually happened.
  const std::uint64_t misses = EngineCounter(*engine, "cache.misses");
  const std::uint64_t evictions = EngineCounter(*engine, "cache.evictions");
  EXPECT_GT(misses, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(EngineGauge(*engine, "cache.size"),
            EngineGauge(*engine, "cache.capacity"));
  EXPECT_LE(evictions, misses);
  EXPECT_GE(EngineCounter(*engine, "queries"),
            static_cast<std::uint64_t>(kThreads * kIters));
  parallel::SetNumThreads(1);
}

TEST(ServingEngineTest, MicroBatcherCoalesces) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;     // a worker per drainer
  options.cache_capacity = 0;  // force every query through the GEMM
  auto engine = MakeEngine(options);
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  const std::uint64_t batches_before = EngineCounter(*engine, "batches");
  const std::uint64_t rows_before = EngineCounter(*engine, "batched_queries");
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        engine->SubmitRequest(MakeRequest({i % 24, (i + 1) % 24}, 5)));
  }
  // All 32 queued while both drainers were busy: the first one freed cuts
  // them as exactly one batch, one GEMM.
  pin.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(EngineCounter(*engine, "batches") - batches_before, 1u);
  EXPECT_EQ(EngineCounter(*engine, "batched_queries") - rows_before, 32u);
}

TEST(ServingEngineTest, PoolBacklogStaysBoundedUnderSustainedOverload) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;     // both workers busy draining
  options.cache_capacity = 0;  // 64 misses: four GEMM blocks, two helpers
  auto engine = MakeEngine(options);
  // 200 full batches queued at once, then drained back to back.
  constexpr int kRequests = 64 * 200;
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        engine->SubmitRequest(MakeRequest({i % 24, (i / 24) % 24}, 5)));
  }
  pin.Release();
  std::size_t max_backlog = 0;
  while (futures.back().wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    max_backlog = std::max(max_backlog, engine->pool_backlog());
    std::this_thread::yield();
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  // Per drainer: its next pass plus one batch's helpers (at most
  // num_threads), never a backlog that grows with the overload.
  EXPECT_LE(max_backlog, 2 * (options.num_threads + 1));
}

TEST(ServingEngineTest, ShutdownDrainsQueuedQueries) {
  ServingEngineOptions options;
  options.num_threads = 2;  // a worker per drainer
  auto engine = MakeEngine(options);
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({i % 24}, 5)));
  }
  // Shutdown begins with all 20 still queued; the drain answers them.
  std::thread shutter = BeginShutdown(engine.get(), &futures);
  pin.Release();
  shutter.join();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // After shutdown, new queries fail fast.
  EXPECT_EQ(engine->SubmitRequest(MakeRequest({1}, 5)).get().status,
            StatusCode::kUnavailable);
}

TEST(ServingEngineTest, DestructorDrainsImplicitly) {
  std::future<Response> future;
  {
    auto engine = MakeEngine();
    future = engine->SubmitRequest(MakeRequest({1, 2}, 5));
  }  // ~ServingEngine must resolve the future
  EXPECT_TRUE(future.get().ok());
}

// --------------------------------------------------------------------------
// Slow-query log
// --------------------------------------------------------------------------

TEST(SlowQueryLogTest, DisabledByDefault) {
  auto engine = MakeEngine();
  EXPECT_FALSE(engine->slow_query_log().enabled());
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2, 3}, 5)).ok());
  EXPECT_EQ(engine->slow_query_log().total_recorded(), 0u);
  EXPECT_TRUE(engine->slow_query_log().Snapshot().empty());
}

TEST(SlowQueryLogTest, NegativeThresholdIsRejected) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = -1.0;
  EXPECT_EQ(
      ServingEngine::CreateFromSnapshot(MakeSnapshot(), options)
          .status()
          .code(),
      smgcn::StatusCode::kInvalidArgument);
}

TEST(SlowQueryLogTest, SyncQueriesRecordStageBreakdown) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;  // everything is "slow"
  options.cache_capacity = 4;
  auto engine = MakeEngine(options);
  ASSERT_TRUE(engine->slow_query_log().enabled());
  for (const Response& response :
       engine->HandleBatch(MakeRequests({{1, 2}, {3, 4, 5}}, 7))) {
    ASSERT_TRUE(response.ok());
  }
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2}, 7)).ok());  // cache hit

  const auto records = engine->slow_query_log().Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(engine->slow_query_log().total_recorded(), 3u);
  for (const SlowQueryRecord& record : records) {
    EXPECT_EQ(record.k, 7u);
    EXPECT_GT(record.total_seconds, 0.0);
    EXPECT_GE(record.batch_size, 1u);
    // Sync path: the query never sat in the async queue.
    EXPECT_EQ(record.queue_seconds, 0.0);
    EXPECT_FALSE(record.ToString().empty());
  }
  EXPECT_FALSE(records[0].cache_hit);
  EXPECT_TRUE(records[2].cache_hit);
  EXPECT_GT(records[0].gemm_seconds + records[0].topk_seconds, 0.0);
  EXPECT_EQ(records[2].gemm_seconds, 0.0);  // hits skip the GEMM
  EXPECT_NE(engine->slow_query_log().RenderMarkdown().find("| total |"),
            std::string::npos);
}

TEST(SlowQueryLogTest, AsyncQueriesRecordQueueAndBatch) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;
  options.cache_capacity = 0;  // force every query through the GEMM
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  auto engine = MakeEngine(options);
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        engine->SubmitRequest(MakeRequest({i % 24, (i + 3) % 24}, 5)));
  }
  pin.Release();  // the 16 queued requests are cut as one batch
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  engine->Shutdown();

  std::vector<SlowQueryRecord> records;
  for (SlowQueryRecord& record : engine->slow_query_log().Snapshot()) {
    if (record.request_id != "pin") records.push_back(std::move(record));
  }
  ASSERT_EQ(records.size(), 16u);
  bool saw_coalesced_batch = false;
  for (const SlowQueryRecord& record : records) {
    // Queued behind the pinned drainers until Release().
    EXPECT_GT(record.queue_seconds, 0.0);
    EXPECT_GE(record.total_seconds,
              record.gemm_seconds + record.topk_seconds);
    if (record.batch_size > 1) saw_coalesced_batch = true;
  }
  EXPECT_TRUE(saw_coalesced_batch);
}

TEST(SlowQueryLogTest, EvictsOldestBeyondCapacity) {
  obs::Registry registry;
  SlowQueryLog log(/*threshold_seconds=*/1e-9, /*capacity=*/4, &registry,
                   "slowlog.");
  for (int i = 0; i < 10; ++i) {
    SlowQueryRecord record;
    record.request_id = std::to_string(i);
    record.total_seconds = 1.0;
    log.Record(std::move(record));
  }
  const std::vector<SlowQueryRecord> retained = log.Snapshot();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_EQ(retained.front().request_id, "6");
  EXPECT_EQ(retained.back().request_id, "9");
  EXPECT_EQ(log.total_recorded(), 10u);
}

TEST(SlowQueryLogTest, SyncRecordsClampedK) {
  // The slow log records the k the request was scored with — clamped to
  // the catalog — on the synchronous path as on the async one.
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-6;  // everything is "slow"
  auto engine = MakeEngine(options);
  const std::size_t num_herbs = engine->store().num_herbs();
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2}, num_herbs + 5)).ok());
  const auto records = engine->slow_query_log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].k, num_herbs);
}

// --------------------------------------------------------------------------
// Hot swap (ServingEngine::PublishSnapshot)
// --------------------------------------------------------------------------

TEST(ServingEngineSwapTest, PublishSwapsScoresAndVersion) {
  auto engine = MakeEngine();
  EXPECT_EQ(engine->active_version(), "v1");
  const Response before = engine->Handle(MakeRequest({1, 2}, 0));
  ASSERT_TRUE(before.ok());

  // A different model: same shapes, shifted embeddings.
  core::InferenceCheckpoint next = MakeCheckpoint();
  for (std::size_t r = 0; r < next.herb_embeddings.rows(); ++r) {
    for (std::size_t c = 0; c < next.herb_embeddings.cols(); ++c) {
      next.herb_embeddings(r, c) += 1.0;
    }
  }
  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(std::move(next), "v2")).ok());
  EXPECT_EQ(engine->active_version(), "v2");

  const Response after = engine->Handle(MakeRequest({1, 2}, 0));
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before.scores, after.scores);
  EXPECT_EQ(engine->Snapshot()->version, "v2");
}

TEST(ServingEngineSwapTest, PublishRejectsBadInput) {
  auto engine = MakeEngine();
  EXPECT_EQ(MakeModelSnapshot(MakeCheckpoint(), "").status().code(),
            smgcn::StatusCode::kInvalidArgument);
  core::InferenceCheckpoint bad;  // empty: fails validation
  EXPECT_FALSE(MakeModelSnapshot(std::move(bad), "v2").ok());
  EXPECT_EQ(engine->PublishSnapshot(nullptr).code(),
            smgcn::StatusCode::kInvalidArgument);
  // Failed publishes leave the active snapshot untouched and serving.
  EXPECT_EQ(engine->active_version(), "v1");
  const Response served = engine->Handle(MakeRequest({1, 2}, 5));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.version, "v1");
}

TEST(ServingEngineSwapTest, CacheEntriesAreScopedToTheirPublish) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2, 3}, 10)).ok());
  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(MakeCheckpoint(12, 40, 8), "v2"))
          .ok());
  // Same query, new snapshot: the v1 cache entry must not answer it.
  ASSERT_TRUE(engine->Handle(MakeRequest({1, 2, 3}, 10)).ok());
  EXPECT_EQ(EngineCounter(*engine, "cache.hits"), 0u);
  EXPECT_EQ(EngineCounter(*engine, "cache.misses"), 2u);
}

TEST(ServingEngineSwapTest, PublishCountsInRegistry) {
  auto engine = MakeEngine();
  const std::string counter = engine->obs_prefix() + "publishes";
  auto* publishes = obs::Registry::Global().GetCounter(counter);
  EXPECT_EQ(publishes->value(), 0u);
  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(MakeCheckpoint(), "v2")).ok());
  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(MakeCheckpoint(), "v3")).ok());
  EXPECT_EQ(publishes->value(), 2u);
}

TEST(ServingEngineSwapTest, InFlightSubmitsFinishOnTheirSnapshot) {
  // Queries submitted before a swap must be answered by the snapshot they
  // were accepted under, even when a drainer executes them after the
  // publish landed.
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);

  const Response expected = engine->Handle(MakeRequest({2, 4}, 5));
  ASSERT_TRUE(expected.ok());

  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine->SubmitRequest(MakeRequest({2, 4}, 5)));
  }
  // The publish lands while all 8 are still queued.
  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(MakeCheckpoint(12, 40, 8), "v2"))
          .ok());
  pin.Release();
  for (auto& f : futures) {
    const Response result = f.get();
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.herb_ids, expected.herb_ids);
  }
  // New queries see the new model's herb count (40 stays, but ids shrink
  // to the 12-symptom vocabulary: symptom 20 is now out of range).
  EXPECT_EQ(engine->Handle(MakeRequest({20}, 5)).status,
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Serving status vocabulary (serve::StatusCode) and the mapping table
// --------------------------------------------------------------------------

TEST(ServeStatusTest, WireBytesArePinned) {
  // The numeric values ARE the wire protocol; this test is the tripwire
  // against reordering the enum.
  EXPECT_EQ(ToWireByte(StatusCode::kOk), 0);
  EXPECT_EQ(ToWireByte(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(ToWireByte(StatusCode::kDeadlineExceeded), 2);
  EXPECT_EQ(ToWireByte(StatusCode::kShedding), 3);
  EXPECT_EQ(ToWireByte(StatusCode::kUnavailable), 4);
  EXPECT_EQ(kMaxWireStatusByte, 4);
  EXPECT_FALSE(FromWireByte(5).ok());
}

TEST(ServeStatusTest, NamesRoundTrip) {
  for (std::uint8_t b = 0; b <= kMaxWireStatusByte; ++b) {
    const auto code = static_cast<StatusCode>(b);
    auto back = StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, code);
    auto byte_back = FromWireByte(ToWireByte(code));
    ASSERT_TRUE(byte_back.ok());
    EXPECT_EQ(*byte_back, code);
  }
  EXPECT_FALSE(StatusCodeFromName("NOT_A_STATUS").ok());
}

TEST(ServeStatusTest, EveryInternalCodeMapsAndRoundTrips) {
  // The mapping table is total: every internal code lands on exactly one
  // serving status, and mapping back yields an internal status that maps
  // to the same serving status (the round trip the wire relies on).
  const smgcn::StatusCode internal_codes[] = {
      smgcn::StatusCode::kOk,
      smgcn::StatusCode::kInvalidArgument,
      smgcn::StatusCode::kNotFound,
      smgcn::StatusCode::kAlreadyExists,
      smgcn::StatusCode::kOutOfRange,
      smgcn::StatusCode::kFailedPrecondition,
      smgcn::StatusCode::kIoError,
      smgcn::StatusCode::kNotImplemented,
      smgcn::StatusCode::kInternal,
      smgcn::StatusCode::kResourceExhausted,
      smgcn::StatusCode::kDeadlineExceeded,
      smgcn::StatusCode::kUnavailable,
  };
  for (const auto internal : internal_codes) {
    const StatusCode serving = FromInternalCode(internal);
    EXPECT_LE(ToWireByte(serving), kMaxWireStatusByte);
    const Status back = ToInternalStatus(serving, "msg");
    EXPECT_EQ(FromInternalCode(back.code()), serving)
        << "round trip broke for " << StatusCodeToString(internal);
  }
  // Spot-check the semantically load-bearing rows.
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kOk), StatusCode::kOk);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kResourceExhausted),
            StatusCode::kShedding);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kDeadlineExceeded),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(FromInternalCode(smgcn::StatusCode::kFailedPrecondition),
            StatusCode::kUnavailable);
  EXPECT_EQ(ToInternalStatus(StatusCode::kShedding, "m").code(),
            smgcn::StatusCode::kResourceExhausted);
  // ToInternalStatus carries the message through (except kOk).
  EXPECT_EQ(ToInternalStatus(StatusCode::kUnavailable, "why").message(),
            "why");
  EXPECT_TRUE(ToInternalStatus(StatusCode::kOk, "ignored").ok());
}

TEST(ServeStatusTest, HttpStatusMapping) {
  EXPECT_EQ(HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(HttpStatusFor(StatusCode::kShedding), 429);
  EXPECT_EQ(HttpStatusFor(StatusCode::kUnavailable), 503);
}

// --------------------------------------------------------------------------
// The Request/Response surface (Handle / HandleBatch / SubmitRequest)
// --------------------------------------------------------------------------

TEST(RequestSurfaceTest, InvalidRequestsGetPerRequestErrors) {
  auto engine = MakeEngine();
  std::vector<Request> requests(3);
  requests[0].symptoms = std::vector<int>{1, 2};
  requests[0].top_k = 5;
  requests[1].symptoms = std::vector<int>{};  // empty: invalid
  requests[1].top_k = 5;
  requests[2].symptoms = std::vector<int>{999};  // out of range
  requests[2].top_k = 5;
  const auto responses = engine->HandleBatch(requests);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status, StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[2].status, StatusCode::kInvalidArgument);
  EXPECT_FALSE(responses[2].message.empty());
  // Errors are attributable: routing succeeded, so model/version are set.
  EXPECT_EQ(responses[1].model, "test-ckpt");
}

TEST(RequestSurfaceTest, VersionPinGuardsAcrossSwaps) {
  auto engine = MakeEngine();
  Request pinned;
  pinned.symptoms = std::vector<int>{1, 2};
  pinned.top_k = 5;
  pinned.version = "v1";
  EXPECT_TRUE(engine->Handle(pinned).ok());

  ASSERT_TRUE(
      engine->PublishSnapshot(MakeSnapshot(MakeCheckpoint(), "v2")).ok());
  const Response stale = engine->Handle(pinned);
  EXPECT_EQ(stale.status, StatusCode::kUnavailable);
  EXPECT_NE(stale.message.find("v1"), std::string::npos);

  pinned.version = "v2";
  EXPECT_TRUE(engine->Handle(pinned).ok());

  // Async path enforces the same guard.
  pinned.version = "v1";
  EXPECT_EQ(engine->SubmitRequest(pinned).get().status,
            StatusCode::kUnavailable);

  Request wrong_model = pinned;
  wrong_model.version.clear();
  wrong_model.model = "other-model";
  EXPECT_EQ(engine->Handle(wrong_model).status, StatusCode::kUnavailable);
}

TEST(RequestSurfaceTest, SyncAndAsyncPathsAnswerAlike) {
  // HandleBatch and SubmitRequest share admission and execution, so the
  // same requests get the same answers on both paths.
  auto created = MakeEngine({}, MakeSnapshot(MakeCheckpoint(
                                    24, 40, 8, /*with_si_mlp=*/true,
                                    /*with_herb_bipar=*/true)));
  ServingEngine& engine = *created;
  ASSERT_TRUE(engine
                  .PublishSnapshot(MakeSnapshot(
                      MakeCheckpoint(24, 40, 8, true, true), "v2"))
                  .ok());

  std::vector<Request> requests;
  requests.push_back(MakeRequest({3, 1, 2}, 5));            // ok
  requests.push_back(MakeRequest({1, 999}, 5));             // invalid symptoms
  requests.push_back(MakeRequest({1, 2}, 5));
  requests.back().model = "other-model";                    // wrong model
  requests.push_back(MakeRequest({1, 2}, 5));
  requests.back().version = "v1";                           // stale pin
  requests.push_back(MakeRequest({4, 5}, 1000));            // over-catalog k
  requests.push_back(MakeRequest({2, 4, 6}, 7));
  requests.back().attribution = true;                       // attribution on
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].request_id = "parity-" + std::to_string(i);
  }

  const std::vector<Response> sync = engine.HandleBatch(requests);
  ASSERT_EQ(sync.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response async = engine.SubmitRequest(requests[i]).get();
    EXPECT_EQ(async.status, sync[i].status) << "request " << i;
    EXPECT_EQ(async.herb_ids, sync[i].herb_ids) << "request " << i;
    EXPECT_EQ(async.request_id, sync[i].request_id) << "request " << i;
    EXPECT_EQ(async.model, sync[i].model) << "request " << i;
    EXPECT_EQ(async.version, sync[i].version) << "request " << i;
    ASSERT_EQ(async.attribution.has_value(), sync[i].attribution.has_value())
        << "request " << i;
    if (!async.attribution.has_value()) continue;
    const auto& a = async.attribution->herbs;
    const auto& b = sync[i].attribution->herbs;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t h = 0; h < a.size(); ++h) {
      EXPECT_EQ(a[h].herb_id, b[h].herb_id);
      EXPECT_EQ(a[h].score, b[h].score);
      EXPECT_EQ(a[h].bipar, b[h].bipar);
      EXPECT_EQ(a[h].synergy, b[h].synergy);
      EXPECT_EQ(a[h].pool_bias, b[h].pool_bias);
      EXPECT_EQ(a[h].pool_residual, b[h].pool_residual);
      EXPECT_EQ(a[h].per_symptom, b[h].per_symptom);
    }
  }
  EXPECT_TRUE(sync[0].ok());
  EXPECT_EQ(sync[1].status, StatusCode::kInvalidArgument);
  EXPECT_EQ(sync[2].status, StatusCode::kUnavailable);
  EXPECT_EQ(sync[3].status, StatusCode::kUnavailable);
  EXPECT_EQ(sync[4].herb_ids.size(), 40u);
  EXPECT_TRUE(sync[5].attribution.has_value());
  EXPECT_EQ(sync[5].version, "v2");
}

TEST(RequestSurfaceTest, AsyncRejectsDenseMode) {
  auto engine = MakeEngine();
  Request request;
  request.symptoms = std::vector<int>{1};
  request.top_k = 0;
  const Response response = engine->SubmitRequest(std::move(request)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  EXPECT_NE(response.message.find("synchronous"), std::string::npos);
}

TEST(RequestSurfaceTest, SyncDeadlineNeverReturnsLateOk) {
  auto engine = MakeEngine();
  Request request;
  request.symptoms = std::vector<int>{1, 2};
  request.top_k = 5;
  request.deadline_ms = 1e-7;  // sub-nanosecond budget: always exceeded
  const Response response = engine->Handle(request);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.herb_ids.empty());
}

TEST(RequestSurfaceTest, UnrepresentableDeadlineMeansNoDeadline) {
  // A budget the steady clock cannot represent is no deadline, on both
  // paths — not an overflowed deadline that has already passed.
  auto engine = MakeEngine();
  for (const double budget_ms :
       {1e13, std::numeric_limits<double>::infinity()}) {
    Request request = MakeRequest({1, 2}, 5);
    request.deadline_ms = budget_ms;
    const Response sync = engine->Handle(request);
    EXPECT_TRUE(sync.ok()) << budget_ms << " ms: " << sync.message;
    const Response async = engine->SubmitRequest(request).get();
    EXPECT_TRUE(async.ok()) << budget_ms << " ms: " << async.message;
    EXPECT_EQ(async.herb_ids, sync.herb_ids);
  }
}

TEST(RequestSurfaceTest, AsyncDeadlineExpiredBeforeBatchingIsSwept) {
  auto engine = MakeEngine();
  Request request;
  request.symptoms = std::vector<int>{1, 2};
  request.top_k = 5;
  request.deadline_ms = 1e-7;
  const Response response = engine->SubmitRequest(std::move(request)).get();
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.herb_ids.empty());
}

TEST(RequestSurfaceTest, FeasibleDeadlineIsServedNotShed) {
  auto engine = MakeEngine();
  Request request;
  request.symptoms = std::vector<int>{1, 2};
  request.top_k = 5;
  request.deadline_ms = 500.0;
  const auto start = std::chrono::steady_clock::now();
  const Response response = engine->SubmitRequest(std::move(request)).get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(response.ok()) << response.message;
  EXPECT_LT(waited, 2.0);  // answered within the budget
}

TEST(RequestSurfaceTest, FullQueueShedsWithSheddingStatus) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  options.max_queue_depth = 2;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);

  // Busy drainers hold the queue, so the burst backs up.
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    Request request;
    request.symptoms = std::vector<int>{1, 2};
    request.top_k = 5;
    futures.push_back(engine->SubmitRequest(std::move(request)));
  }
  pin.Release();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    const Response response = f.get();
    if (response.ok()) {
      ++ok;
    } else {
      // Shedding, not a timeout and not a generic failure: clients must be
      // able to tell "back off" from "broken".
      ASSERT_EQ(response.status, StatusCode::kShedding) << response.message;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 8u);
}

TEST(RequestSurfaceTest, ShedRequestsCountInObsRegistry) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  options.max_queue_depth = 1;
  auto engine = MakeEngine(options);
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    Request request;
    request.symptoms = std::vector<int>{1};
    request.top_k = 3;
    futures.push_back(engine->SubmitRequest(std::move(request)));
  }
  pin.Release();
  for (auto& f : futures) f.get();
  const auto* shed = obs::Registry::Global().GetCounter(
      engine->obs_prefix() + "shed");
  EXPECT_EQ(shed->value(), 3u);
}

TEST(RequestSurfaceTest, ShutdownDrainAnswersQueuedRequests) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  auto engine = MakeEngine(options);
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.symptoms = std::vector<int>{1, 2, 3};
    request.top_k = 5;
    futures.push_back(engine->SubmitRequest(std::move(request)));
  }
  // Drain: Shutdown begins with all 16 queued, and everything admitted is
  // answered.
  std::thread shutter = BeginShutdown(engine.get(), &futures);
  pin.Release();
  shutter.join();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  Request late;
  late.symptoms = std::vector<int>{1};
  late.top_k = 5;
  EXPECT_EQ(engine->SubmitRequest(std::move(late)).get().status,
            StatusCode::kUnavailable);
}

// --------------------------------------------------------------------------
// Callback admission: exactly once, the same Response as the future
// --------------------------------------------------------------------------

// Counts a SubmitRequest callback's invocations and keeps the first
// Response.
struct CallbackProbe {
  std::atomic<int> calls{0};
  std::promise<Response> first;
};

std::shared_ptr<CallbackProbe> SubmitWithCallback(ServingEngine* engine,
                                                  Request request) {
  auto probe = std::make_shared<CallbackProbe>();
  engine->SubmitRequest(std::move(request), [probe](Response response) {
    if (probe->calls.fetch_add(1) == 0) {
      probe->first.set_value(std::move(response));
    }
  });
  return probe;
}

// Submits `request` through the future overload and then the callback
// overload, and checks the callback's Response against the future's. With
// `synchronous` the callback must have fired before SubmitRequest
// returned. Deadline messages carry timings, so `compare_message` may be
// off. The probe goes to `probes` so the caller can count calls once the
// engine has drained.
Response ExpectCallbackMatchesFuture(
    ServingEngine* engine, const Request& request, bool synchronous,
    std::vector<std::shared_ptr<CallbackProbe>>* probes,
    bool compare_message = true) {
  const Response expected = engine->SubmitRequest(request).get();
  auto probe = SubmitWithCallback(engine, request);
  if (synchronous) {
    EXPECT_EQ(probe->calls.load(), 1) << "fired after SubmitRequest returned";
  }
  const Response actual = probe->first.get_future().get();
  EXPECT_EQ(actual.status, expected.status);
  if (compare_message) {
    EXPECT_EQ(actual.message, expected.message);
  }
  EXPECT_EQ(actual.herb_ids, expected.herb_ids);
  EXPECT_EQ(actual.request_id, expected.request_id);
  EXPECT_EQ(actual.model, expected.model);
  EXPECT_EQ(actual.version, expected.version);
  EXPECT_EQ(actual.attribution.has_value(), expected.attribution.has_value());
  probes->push_back(std::move(probe));
  return actual;
}

Request TaggedRequest(std::vector<int> symptoms, const std::string& tag) {
  Request request;
  request.symptoms = std::move(symptoms);
  request.top_k = 5;
  request.request_id = tag;  // fixed, so both overloads answer the same id
  return request;
}

TEST(CallbackAdmissionTest, RejectionsFireOnceBeforeSubmitReturns) {
  auto engine = MakeEngine();
  std::vector<std::shared_ptr<CallbackProbe>> probes;

  Request pinned = TaggedRequest(std::vector<int>{1, 2}, "cb-pin");
  pinned.model = "other-model";
  EXPECT_EQ(ExpectCallbackMatchesFuture(engine.get(), pinned, true, &probes)
                .status,
            StatusCode::kUnavailable);

  EXPECT_EQ(ExpectCallbackMatchesFuture(
                engine.get(), TaggedRequest(std::vector<int>{1, 9999}, "cb-range"),
                true, &probes)
                .status,
            StatusCode::kInvalidArgument);

  Request dense = TaggedRequest(std::vector<int>{1}, "cb-dense");
  dense.top_k = 0;
  EXPECT_EQ(
      ExpectCallbackMatchesFuture(engine.get(), dense, true, &probes).status,
      StatusCode::kInvalidArgument);

  engine->Shutdown();
  EXPECT_EQ(ExpectCallbackMatchesFuture(
                engine.get(), TaggedRequest(std::vector<int>{1}, "cb-down"), true,
                &probes)
                .status,
            StatusCode::kUnavailable);
  for (const auto& probe : probes) EXPECT_EQ(probe->calls.load(), 1);
}

TEST(CallbackAdmissionTest, ShedAtQueueDepthFiresOnceBeforeSubmitReturns) {
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.num_threads = 2;  // a worker per drainer
  options.max_queue_depth = 1;
  options.cache_capacity = 0;
  auto engine = MakeEngine(options);
  // Busy drainers hold the queue, so the filler keeps it full.
  auto pin = PinDrainers(engine.get());
  ASSERT_TRUE(pin.pinned());
  std::vector<std::shared_ptr<CallbackProbe>> probes;
  auto filler = engine->SubmitRequest(TaggedRequest(std::vector<int>{1}, "fill"));
  EXPECT_EQ(ExpectCallbackMatchesFuture(
                engine.get(), TaggedRequest(std::vector<int>{1, 2}, "cb-shed"),
                true, &probes)
                .status,
            StatusCode::kShedding);
  pin.Release();
  engine->Shutdown();
  EXPECT_TRUE(filler.get().ok());
  for (const auto& probe : probes) EXPECT_EQ(probe->calls.load(), 1);
}

TEST(CallbackAdmissionTest, ScoredAndExpiredOutcomesFireOnce) {
  auto engine = MakeEngine();
  std::vector<std::shared_ptr<CallbackProbe>> probes;

  Request ok = TaggedRequest(std::vector<int>{3, 1, 2}, "cb-ok");
  ok.attribution = true;
  const Response served =
      ExpectCallbackMatchesFuture(engine.get(), ok, false, &probes);
  EXPECT_TRUE(served.ok()) << served.message;
  EXPECT_EQ(served.herb_ids, engine->Handle(ok).herb_ids);
  EXPECT_TRUE(served.attribution.has_value());

  Request expired = TaggedRequest(std::vector<int>{1, 2}, "cb-expired");
  expired.deadline_ms = 1e-7;  // gone before a drainer can start it
  const Response swept = ExpectCallbackMatchesFuture(
      engine.get(), expired, false, &probes, /*compare_message=*/false);
  EXPECT_EQ(swept.status, StatusCode::kDeadlineExceeded);
  EXPECT_NE(swept.message.find("before scoring"), std::string::npos)
      << swept.message;
  engine->Shutdown();
  for (const auto& probe : probes) EXPECT_EQ(probe->calls.load(), 1);
}

TEST(CallbackAdmissionTest, DeadlineExpiredDuringScoringFiresOnce) {
  // The batch starts within the budget (an idle drainer cuts it at once),
  // but an all-herb ranking with attribution over a wide catalogue cannot
  // finish in time, so the post-scoring check answers. A late start on a
  // loaded host shows up as "before scoring"; the budget then doubles.
  ServingEngineOptions options;
  options.cache_capacity = 0;
  auto engine = MakeEngine(
      options, MakeSnapshot(MakeCheckpoint(64, 4000, 64, /*with_si_mlp=*/true,
                                           /*with_herb_bipar=*/true)));
  std::vector<int> symptoms(32);
  for (int i = 0; i < 32; ++i) symptoms[static_cast<std::size_t>(i)] = 2 * i;
  std::vector<std::shared_ptr<CallbackProbe>> probes;
  bool expired_after_scoring = false;
  for (double budget_ms = 2.0; budget_ms <= 64.0 && !expired_after_scoring;
       budget_ms *= 2.0) {
    Request request = TaggedRequest(symptoms, "cb-late");
    request.top_k = 4000;
    request.attribution = true;
    request.deadline_ms = budget_ms;
    probes.push_back(SubmitWithCallback(engine.get(), std::move(request)));
    const Response response = probes.back()->first.get_future().get();
    if (response.ok()) continue;  // scored within the budget after all
    EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.herb_ids.empty());
    EXPECT_EQ(response.request_id, "cb-late");
    expired_after_scoring =
        response.message.find("answered after") != std::string::npos;
  }
  engine->Shutdown();
  EXPECT_TRUE(expired_after_scoring);
  for (const auto& probe : probes) EXPECT_EQ(probe->calls.load(), 1);
}

// --------------------------------------------------------------------------
// Score attribution (audit trail)
// --------------------------------------------------------------------------

// Asserts the two attribution identities hold bit-exactly and that the
// attribution describes exactly the served ranking.
void CheckAttributionInvariants(const Response& response,
                                const std::vector<int>& canonical_symptoms) {
  ASSERT_TRUE(response.attribution.has_value());
  const audit::QueryAttribution& attr = *response.attribution;
  EXPECT_EQ(attr.symptom_ids, canonical_symptoms);
  ASSERT_EQ(attr.herbs.size(), response.herb_ids.size());
  for (std::size_t i = 0; i < attr.herbs.size(); ++i) {
    const audit::HerbAttribution& herb = attr.herbs[i];
    EXPECT_EQ(herb.herb_id, response.herb_ids[i]);
    EXPECT_TRUE(herb.exact);
    ASSERT_EQ(herb.per_symptom.size(), canonical_symptoms.size());
    // Residual-anchored: both reconstructions land on the served double
    // exactly, at every precision.
    EXPECT_EQ(herb.bipar + herb.synergy, herb.score);
    EXPECT_EQ(audit::ReconstructPooled(herb), herb.score);
  }
}

// The acceptance-criteria parity test: one walk over all three precisions,
// 1 and 4 threads, and every serving path (sync per-query, sync batched,
// cache-hit repeat, async micro-batched). The attribution must satisfy the
// reconstruction identities everywhere and be bit-identical across paths
// and thread counts (row independence).
TEST(AttributionTest, ParityAcrossPrecisionsPathsAndThreads) {
  const std::vector<int> symptoms = std::vector<int>{6, 2, 4, 2};     // canonical: {2,4,6}
  const std::vector<int> canonical = {2, 4, 6};
  constexpr std::size_t kTopK = 7;
  for (const tensor::Precision precision :
       {tensor::Precision::kFloat64, tensor::Precision::kFloat32,
        tensor::Precision::kInt8}) {
    // herbs[path][thread-config] collected for cross-path comparison.
    std::vector<std::vector<audit::HerbAttribution>> collected;
    for (const int threads : {1, 4}) {
      parallel::SetNumThreads(threads);
      auto engine = MakeEngine(
          {}, MakeSnapshot(MakeCheckpoint(24, 40, 8, /*with_si_mlp=*/true,
                                          /*with_herb_bipar=*/true),
                           "v1", precision));

      Request request;
      request.symptoms = symptoms;
      request.top_k = kTopK;
      request.attribution = true;

      // Path 1: sync per-query (cache miss).
      const Response sync = engine->Handle(request);
      ASSERT_TRUE(sync.ok()) << sync.message;
      CheckAttributionInvariants(sync, canonical);

      // The served scores are the dense scores for the same query: the
      // attribution decomposes exactly what the ranking saw.
      const Response dense = engine->Handle(MakeRequest(symptoms, 0));
      ASSERT_TRUE(dense.ok());
      for (const audit::HerbAttribution& herb : sync.attribution->herbs) {
        EXPECT_EQ(herb.score, dense.scores[herb.herb_id]);
        EXPECT_TRUE(herb.has_components);
        // With components the split is informative: the bipar term is not
        // just the whole score.
        EXPECT_NE(herb.synergy, 0.0);
      }

      // Path 2: cache-hit repeat of the same query.
      const Response cached = engine->Handle(request);
      ASSERT_TRUE(cached.ok());
      CheckAttributionInvariants(cached, canonical);

      // Path 3: batched alongside unrelated queries.
      std::vector<Request> batch(3);
      batch[0].symptoms = std::vector<int>{1, 9};
      batch[0].top_k = kTopK;
      batch[1] = request;
      batch[2].symptoms = std::vector<int>{0, 23, 11};
      batch[2].top_k = kTopK;
      const std::vector<Response> batched = engine->HandleBatch(batch);
      ASSERT_TRUE(batched[1].ok());
      CheckAttributionInvariants(batched[1], canonical);
      EXPECT_FALSE(batched[0].attribution.has_value());  // not requested

      // Path 4: async micro-batched.
      Request async_request = request;
      const Response async =
          engine->SubmitRequest(std::move(async_request)).get();
      ASSERT_TRUE(async.ok()) << async.message;
      CheckAttributionInvariants(async, canonical);

      collected.push_back(sync.attribution->herbs);
      collected.push_back(cached.attribution->herbs);
      collected.push_back(batched[1].attribution->herbs);
      collected.push_back(async.attribution->herbs);
    }
    // Every path at every thread count produced bit-identical terms.
    for (std::size_t p = 1; p < collected.size(); ++p) {
      ASSERT_EQ(collected[p].size(), collected[0].size());
      for (std::size_t i = 0; i < collected[0].size(); ++i) {
        const audit::HerbAttribution& a = collected[0][i];
        const audit::HerbAttribution& b = collected[p][i];
        EXPECT_EQ(a.herb_id, b.herb_id) << "path " << p;
        EXPECT_EQ(a.score, b.score) << "path " << p;
        EXPECT_EQ(a.bipar, b.bipar) << "path " << p;
        EXPECT_EQ(a.synergy, b.synergy) << "path " << p;
        EXPECT_EQ(a.pool_bias, b.pool_bias) << "path " << p;
        EXPECT_EQ(a.pool_residual, b.pool_residual) << "path " << p;
        EXPECT_EQ(a.per_symptom, b.per_symptom) << "path " << p;
      }
    }
  }
  parallel::SetNumThreads(1);
}

TEST(AttributionTest, F64MatchesCheckpointReference) {
  // The store's f64 attribution is bit-identical to the checkpoint-level
  // reference implementation (both accumulate ascending-k from zero).
  auto ckpt = MakeCheckpoint(24, 40, 8, true, /*with_herb_bipar=*/true);
  core::InferenceCheckpoint reference_copy = ckpt;
  auto engine = MakeEngine({}, MakeSnapshot(std::move(ckpt)));
  Request request;
  request.symptoms = std::vector<int>{2, 4, 6};
  request.top_k = 5;
  request.attribution = true;
  const Response response = engine->Handle(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.attribution.has_value());

  auto reference = audit::AttributeFromCheckpoint(reference_copy, {2, 4, 6},
                                                  response.herb_ids);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->herbs.size(), response.attribution->herbs.size());
  for (std::size_t i = 0; i < reference->herbs.size(); ++i) {
    const audit::HerbAttribution& expected = reference->herbs[i];
    const audit::HerbAttribution& got = response.attribution->herbs[i];
    EXPECT_EQ(got.score, expected.score);
    EXPECT_EQ(got.bipar, expected.bipar);
    EXPECT_EQ(got.synergy, expected.synergy);
    EXPECT_EQ(got.pool_bias, expected.pool_bias);
    EXPECT_EQ(got.pool_residual, expected.pool_residual);
    EXPECT_EQ(got.per_symptom, expected.per_symptom);
  }
}

TEST(AttributionTest, WithoutBiparTableFallsBackToWholeScore) {
  auto engine = MakeEngine(
      {}, MakeSnapshot(
              MakeCheckpoint(24, 40, 8, true, /*with_herb_bipar=*/false)));
  Request request;
  request.symptoms = std::vector<int>{1, 3};
  request.top_k = 5;
  request.attribution = true;
  const Response response = engine->Handle(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.attribution.has_value());
  for (const audit::HerbAttribution& herb : response.attribution->herbs) {
    EXPECT_FALSE(herb.has_components);
    EXPECT_EQ(herb.bipar, herb.score);
    EXPECT_EQ(herb.synergy, 0.0);
    EXPECT_EQ(audit::ReconstructPooled(herb), herb.score);
  }
}

TEST(AttributionTest, RequestIdMintedEchoedAndSlowLogged) {
  ServingEngineOptions options;
  options.slow_query_threshold_ms = 1e-9;  // everything is "slow"
  auto engine =
      MakeEngine(options, MakeSnapshot(MakeCheckpoint(24, 40, 8, true, true)));

  // Client-supplied id is echoed on the sync path...
  Request request;
  request.symptoms = std::vector<int>{2, 4};
  request.top_k = 5;
  request.request_id = "client-id-7";
  const Response echoed = engine->Handle(request);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.request_id, "client-id-7");

  // ...and minted when absent, on both paths.
  Request minted_req;
  minted_req.symptoms = std::vector<int>{2, 4};
  minted_req.top_k = 5;
  const Response minted = engine->Handle(minted_req);
  ASSERT_TRUE(minted.ok());
  EXPECT_FALSE(minted.request_id.empty());
  EXPECT_NE(minted.request_id, "client-id-7");
  Request async_req;
  async_req.symptoms = std::vector<int>{1, 5};
  async_req.top_k = 5;
  async_req.request_id = "async-id-9";
  const Response async = engine->SubmitRequest(std::move(async_req)).get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async.request_id, "async-id-9");

  // Minted ids are unique across requests.
  Request another;
  another.symptoms = std::vector<int>{2, 4};
  another.top_k = 5;
  const Response minted2 = engine->Handle(another);
  EXPECT_NE(minted2.request_id, minted.request_id);

  // The slow log carries the correlation id and the model/version.
  bool found = false;
  for (const SlowQueryRecord& record :
       engine->slow_query_log().Snapshot()) {
    if (record.request_id == "client-id-7") {
      found = true;
      EXPECT_EQ(record.model, "test-ckpt");
      EXPECT_EQ(record.model_version, "v1");
      EXPECT_NE(record.ToString().find("id=client-id-7"), std::string::npos);
      EXPECT_NE(record.ToString().find("model=test-ckpt/v1"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AttributionTest, ErrorsAndDenseModeCarryNoAttribution) {
  auto engine =
      MakeEngine({}, MakeSnapshot(MakeCheckpoint(24, 40, 8, true, true)));
  // Invalid symptoms: error response still carries a request id.
  Request bad;
  bad.symptoms = std::vector<int>{9999};
  bad.top_k = 5;
  bad.attribution = true;
  bad.request_id = "bad-1";
  const Response error = engine->Handle(bad);
  EXPECT_FALSE(error.ok());
  EXPECT_FALSE(error.attribution.has_value());
  EXPECT_EQ(error.request_id, "bad-1");
  // Dense mode ignores the attribution flag (ranked-only contract).
  Request dense;
  dense.symptoms = std::vector<int>{1, 2};
  dense.top_k = 0;
  dense.attribution = true;
  const Response scores = engine->Handle(dense);
  ASSERT_TRUE(scores.ok());
  EXPECT_FALSE(scores.attribution.has_value());
}

}  // namespace
}  // namespace serve
}  // namespace smgcn
