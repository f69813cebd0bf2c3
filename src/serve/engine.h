// ServingEngine: high-throughput serving of immutable model snapshots.
//
// The engine has one serving surface, the serve::Request / serve::Response
// pair (src/serve/request.h), shared verbatim with the wire protocol, and
// one way to run it. Every request passes the same admission step (mint or
// keep the correlation id, check the model/version pins, clamp k to the
// herb catalog, canonicalize the symptoms, set the deadline) and is scored
// by the same batch executor (group by snapshot and k; per group a cache
// lookaside, one GEMM over the misses, then top-k or dense rows). The entry
// points differ only in how a batch reaches that executor:
//   * Handle / HandleBatch — synchronous: the caller's requests form one
//     batch, executed on the calling thread against one snapshot. top_k >= 1
//     returns ranked herb ids; top_k == 0 returns dense scores.
//   * SubmitRequest — asynchronous (ranked mode only): returns a
//     std::future<Response> immediately, or hands the Response to a
//     callback (the network front-end's form). The request joins a queue
//     that at most two drainers empty on the shared ThreadPool: a submit
//     that finds a drainer slot free starts one, and each drainer cuts
//     whatever is queued (up to max_batch_size) into one batch, runs it,
//     and re-queues itself on the pool while requests remain. Nothing
//     waits on a timer: an
//     idle engine runs a request at once, and arrivals coalesce only while
//     both drainers are busy, so batch size follows load. Admission is
//     bounded: with max_queue_depth > 0 a full queue load-sheds new
//     requests with kShedding instead of queueing unboundedly.
//
// Deadlines: a request with deadline_ms > 0 is answered kOk only if
// scoring finished within its budget, counted from admission. A request
// whose budget expired before its batch started is answered
// kDeadlineExceeded without being scored, and one that ran out during
// scoring is answered kDeadlineExceeded with no payload. A budget too large
// for the steady clock to represent (1e13 ms, inf) means no deadline.
//
// Metrics live in the smgcn::obs registry under the engine's own scope
// (obs_prefix()); there is no separate stats view to keep in sync.
//
// Batched, async and per-query results are bit-identical for a given
// canonical query: the kernels process batch rows independently in a fixed
// order (see EmbeddingStore).
//
// Construction: callers freeze a checkpoint or artifact into a snapshot
// (MakeModelSnapshot / MakeModelSnapshotFromArtifact, which pick the scoring
// precision) and hand it to CreateFromSnapshot; there is no other way in.
//
// Threading: a batch's misses are scored in 16-row blocks through
// parallel::RunBlocks on the engine's own pool, the calling thread claiming
// blocks too. Blocks run inside a parallel region, so the kernels nested in
// them (the f64 SI-MLP MatMul) run inline on the block's thread instead of
// crossing into the process-wide pool, and every fan-out counts under the
// parallel.* instruments.
//
// Hot swap: the engine serves from an immutable ModelSnapshot held through
// a shared_ptr. PublishSnapshot() atomically installs a new snapshot
// (RCU-style); every query grabs the pointer once on entry and finishes on
// that version even if a swap lands mid-flight, so responses are never
// mixed-version and a swap never pauses traffic. Cache entries are keyed
// with the snapshot's unique salt, so a swap implicitly invalidates stale
// top-k results without flushing anything (superseded entries age out
// through LRU).
//
// Shutdown() drains: queued requests are still answered by the drainers,
// and later SubmitRequests are answered kUnavailable. The destructor shuts
// down implicitly.
#ifndef SMGCN_SERVE_ENGINE_H_
#define SMGCN_SERVE_ENGINE_H_

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/serve/cache.h"
#include "src/serve/embedding_store.h"
#include "src/serve/query.h"
#include "src/serve/request.h"
#include "src/serve/slow_log.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace smgcn {
namespace serve {

/// One published model version: an immutable scoring store plus the
/// versioning identity the serving layer keys caches and rollbacks on.
/// Always handled through shared_ptr<const ...> — in-flight queries keep
/// the snapshot they grabbed alive (RCU semantics), so publishing a new
/// version never invalidates a reader.
struct ModelSnapshot {
  ModelSnapshot(EmbeddingStore store_in, std::string version_in,
                std::uint64_t salt_in)
      : store(std::move(store_in)),
        version(std::move(version_in)),
        salt(salt_in) {}

  EmbeddingStore store;
  /// Semantic model version ("v7", "2026-08-01-a", ...), chosen by the
  /// publisher; surfaced in examples/stats and used by ModelManager's
  /// rollback bookkeeping.
  std::string version;
  /// Process-unique per publish instance; mixed into every cache key so an
  /// entry computed under one snapshot can never answer a query routed to
  /// another. Re-publishing the same snapshot object (rollback) reuses the
  /// salt, which makes its surviving cache entries instantly warm again.
  std::uint64_t salt = 0;
};

/// Validates `checkpoint` and freezes it into a snapshot under the given
/// semantic version, assigning a fresh cache salt. At Precision::kFloat32
/// the store narrows the payloads once and serves through the dispatched
/// f32 kernels (half the memory, vectorized scoring); kFloat64 is the
/// bit-exact reference.
Result<std::shared_ptr<const ModelSnapshot>> MakeModelSnapshot(
    core::InferenceCheckpoint checkpoint, std::string version,
    tensor::Precision precision = tensor::Precision::kFloat64);

/// Freezes a mapped artifact into a snapshot served at its stored
/// precision. For f64/f32 this equals MakeModelSnapshot on the widened
/// checkpoint (the round trip is exact); for int8 the store copies the
/// file's quantized payload and scale vectors verbatim, so the integers
/// scored are the integers on disk.
Result<std::shared_ptr<const ModelSnapshot>> MakeModelSnapshotFromArtifact(
    const core::MappedArtifact& artifact, std::string version);

struct ServingEngineOptions {
  /// Upper bound on queued requests a drainer cuts into one batch (must be
  /// positive). A drainer never waits for a batch to fill: it takes what is
  /// queued. HandleBatch is not split: its batch is whatever the caller
  /// passes.
  std::size_t max_batch_size = 64;
  /// Worker threads running the drainers and helping with every batch's
  /// GEMM blocks (HandleBatch's caller thread claims blocks too). 0 (the
  /// default) sizes the pool from the process-wide smgcn::parallel
  /// configuration (parallel::GetNumThreads()); parallel::SetNumThreads is
  /// the knob to turn. See docs/API_TOUR.md §Parallelism.
  std::size_t num_threads = 0;
  /// Total top-k cache entries; 0 disables caching entirely. The cache
  /// derives its shard count from this (8 shards at the default, one for
  /// small caches; see ShardedTopKCache).
  std::size_t cache_capacity = 4096;
  /// Latency threshold for the slow-query log in milliseconds: ranked
  /// requests at or above it are recorded with a per-stage breakdown (queue
  /// → GEMM → top-k; queue is 0 for HandleBatch)
  /// and the clamped k; see slow_query_log(). 0 (the default) disables the
  /// log. The log retains the latest 128 records; the eviction-independent
  /// count lives in `<obs_prefix>slow_queries`.
  double slow_query_threshold_ms = 0.0;
  /// Admission bound for the async queue (SubmitRequest): when
  /// > 0, a request arriving while this many are already queued is
  /// load-shed immediately with kShedding (`<prefix>shed` counts them)
  /// instead of queueing unboundedly. 0 — the in-process default —
  /// disables shedding; network front-ends should set it (the
  /// smgcn_server example sets 256).
  std::size_t max_queue_depth = 0;
};

/// Concurrent batched inference engine over published model snapshots.
/// Thread-safe: every public method may be called from any thread,
/// including PublishSnapshot concurrently with queries.
class ServingEngine {
 public:
  /// Validates the options and starts the worker threads, serving
  /// `snapshot` (at the precision it was built with) until the next
  /// PublishSnapshot.
  static Result<std::unique_ptr<ServingEngine>> CreateFromSnapshot(
      std::shared_ptr<const ModelSnapshot> snapshot,
      ServingEngineOptions options = {});

  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Atomically swaps serving to `snapshot`. In-flight queries finish on
  /// the snapshot they grabbed; queries arriving after PublishSnapshot
  /// returns score on the new version. Fails (leaving the current version
  /// serving) when `snapshot` is null. Reusing a snapshot object that
  /// served before (rollback) restores its still-resident cache entries.
  Status PublishSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new queries are currently routed to. Holding the returned
  /// pointer pins that version's store (it stays valid across swaps).
  std::shared_ptr<const ModelSnapshot> Snapshot() const;

  /// Semantic version of the active snapshot.
  std::string active_version() const;

  /// Answers one request synchronously. Ranked mode (top_k >= 1) consults
  /// the cache then scores; dense mode (top_k == 0) returns every herb's
  /// score in catalog order. Per-request failures land in the Response
  /// (never a C++ error): kInvalidArgument for malformed symptom sets,
  /// kUnavailable for a model/version pin that doesn't match the active
  /// snapshot, kDeadlineExceeded when deadline_ms elapsed before the
  /// answer was ready.
  Response Handle(const Request& request) const;

  /// Answers a batch synchronously on the calling thread: every request is
  /// admitted against one snapshot, then the admitted ones run through the
  /// micro-batcher's executor as one batch (one GEMM per distinct clamped
  /// k, plus one for dense mode); rejected ones get their own error
  /// Response. Responses align with `requests` by index.
  std::vector<Response> HandleBatch(const std::vector<Request>& requests) const;

  /// Enqueues a ranked request (top_k >= 1; dense mode is sync-only) for
  /// micro-batched execution. The future always resolves with a Response —
  /// kShedding when the admission queue is full (max_queue_depth > 0),
  /// kUnavailable once the engine is shut down, kDeadlineExceeded when the
  /// budget expired before scoring. The request is bound to the snapshot
  /// active at submit time and answered from it even if a PublishSnapshot lands
  /// before the batch executes.
  std::future<Response> SubmitRequest(Request request);

  /// Callback form of SubmitRequest, for callers that must not block on a
  /// future (the network event loop). `done` receives exactly the Response
  /// the future overload would resolve with, exactly once: synchronously,
  /// before this returns, for requests rejected at admission (validation,
  /// pins, dense mode, shedding, shutdown); otherwise on the thread that
  /// executed the batch, so `done` must be cheap and must not block.
  void SubmitRequest(Request request, std::function<void(Response)> done);

  /// Stops admitting requests and waits until the drainers have answered
  /// everything already queued. Idempotent; called by the destructor.
  void Shutdown();

  /// Scope this engine's instruments occupy in obs::Registry::Global(),
  /// e.g. "serve.engine0.": queries (answered after scoring),
  /// latency.seconds (admission to answer), batches and batched_queries
  /// (one per scored group and its GEMM rows), max_batch_size (gauge),
  /// publishes, shed, deadline_exceeded, slow_queries, and the cache's
  /// under "<prefix>cache.".
  const std::string& obs_prefix() const { return obs_prefix_; }

  /// Tasks waiting in the worker pool, not yet started: drainer passes and
  /// GEMM block helpers. Bounded by a small multiple of num_threads under
  /// any load, since the backlog waits in the admission queue instead.
  std::size_t pool_backlog() const { return pool_->pending(); }

  /// The slow-query log (disabled unless slow_query_threshold_ms > 0).
  const SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// Convenience view of the active snapshot's store. The reference stays
  /// valid until the NEXT PublishSnapshot (the engine pins the snapshot it
  /// serves from); callers that outlive a swap must hold Snapshot() instead.
  const EmbeddingStore& store() const;
  const ServingEngineOptions& options() const { return options_; }

 private:
  /// An admitted request on its way through the executor — queued by
  /// SubmitRequest, or held by HandleBatch for the length of the call.
  struct PendingRequest {
    CanonicalQuery query;
    /// top_k clamped to the herb catalog; 0 is dense mode (HandleBatch
    /// only).
    std::size_t k = 0;
    /// Correlation id: Request::request_id or engine-minted at admission.
    std::string request_id;
    /// Whether to attach the score attribution to the answer.
    bool attribution = false;
    /// The version this request was admitted under; ExecuteBatch scores it
    /// there, so every response is attributable to exactly one publish.
    std::shared_ptr<const ModelSnapshot> snapshot;
    /// Receives the answer exactly once, never under queue_mu_.
    std::function<void(Response)> deliver;
    /// Admission time: latency, queue time and the deadline count from it.
    std::chrono::steady_clock::time_point enqueue_time;
    /// Absolute deadline (computed from Request::deadline_ms at
    /// admission); time_point::max() when the request has none.
    std::chrono::steady_clock::time_point deadline;
  };

  ServingEngine(std::shared_ptr<const ModelSnapshot> snapshot,
                ServingEngineOptions options);

  /// Per-query stage attribution for the slow-query log. Batched stages
  /// are shares: block stage time divided by the block's query count.
  struct QueryStages {
    double gemm_seconds = 0.0;
    double topk_seconds = 0.0;
    bool cache_hit = false;
    std::size_t batch_size = 1;
  };

  /// The admission step every entry point shares. Mints the correlation id
  /// (or keeps the client's) and marks it on the trace, binds `snapshot`,
  /// rejects dense mode when `async`, checks the model/version pins, clamps
  /// k to the catalog, canonicalizes the symptoms, and sets the deadline
  /// from `now`. request_id and snapshot are set on every
  /// outcome, so a rejection is attributable too. Returns OK when the
  /// request may be scored, else the status to answer it with.
  Status Admit(const Request& request,
               std::shared_ptr<const ModelSnapshot> snapshot, bool async,
               std::chrono::steady_clock::time_point now,
               PendingRequest* out) const;

  /// Scores one group of canonical queries that share a snapshot and k:
  /// cache lookaside in ranked mode (keys mixed with k and salted with the
  /// snapshot), one parallel::RunBlocks GEMM over the rest, then top-k off
  /// the store's score block + cache insert (k >= 1) or the rows widened to
  /// double (k == 0, inside the serve.gemm span). Query i's payload lands
  /// in out[i].herb_ids or out[i].scores; counts one `batches` per call
  /// that scored anything. `stages`, when non-null, is resized to
  /// queries.size() and filled with per-query attribution (only worth the
  /// timing cost when the slow-query log is enabled).
  void RecommendCanonical(const ModelSnapshot& snap,
                          const std::vector<CanonicalQuery>& queries,
                          std::size_t k, Response* out,
                          std::vector<QueryStages>* stages) const;

  /// Routing guard: non-empty request.model / request.version must match
  /// `snap`.
  Status CheckPins(const Request& request, const ModelSnapshot& snap) const;

  /// One drainer pass, run as a pool task: cuts up to max_batch_size
  /// queued requests into a batch and executes it, then submits the next
  /// pass if requests remain, else releases its drainer slot.
  void DrainQueue();
  /// The one batch executor. Sweeps requests whose deadline passed before
  /// `execute_start`, groups the rest by (snapshot, k) — one
  /// RecommendCanonical pass each — and delivers every Response with its
  /// latency, slow-log record, optional attribution and deadline
  /// post-check.
  void ExecuteBatch(std::vector<PendingRequest> batch,
                    std::chrono::steady_clock::time_point execute_start) const;

  /// The active snapshot, guarded by snapshot_mu_ (held only to copy the
  /// pointer — scoring never runs under it).
  std::shared_ptr<const ModelSnapshot> snapshot_;
  mutable std::mutex snapshot_mu_;

  ServingEngineOptions options_;
  std::string obs_prefix_;  // initialised before cache_ and the instruments
  mutable ShardedTopKCache cache_;
  bool cache_enabled_ = false;
  mutable SlowQueryLog slow_log_;
  obs::Counter* queries_;          // <prefix>queries
  obs::Histogram* latency_;        // <prefix>latency.seconds
  obs::Counter* batches_;          // <prefix>batches — one per scored group
  obs::Counter* batched_queries_;  // <prefix>batched_queries — GEMM rows
  obs::Gauge* max_batch_size_;     // <prefix>max_batch_size (atomic max)
  obs::Counter* publishes_;        // <prefix>publishes
  obs::Counter* shed_;             // <prefix>shed — queue-full rejections
  obs::Counter* deadline_exceeded_;  // <prefix>deadline_exceeded
  // Span sinks on the submit → coalesce → GEMM path, shared across engines
  // (process-wide; resolved once here so spans are cheap).
  obs::Counter* submitted_;        // serve.submitted
  obs::Histogram* coalesce_span_;  // span.serve.coalesce.seconds
  obs::Histogram* gemm_span_;      // span.serve.gemm.seconds
  obs::Histogram* execute_span_;   // span.serve.execute_batch.seconds
  // Trace name ids for the same path, interned once per engine.
  std::uint32_t gemm_trace_id_;
  std::uint32_t execute_trace_id_;
  std::uint32_t publish_trace_id_;

  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex queue_mu_;
  std::deque<PendingRequest> queue_;
  bool shutting_down_ = false;  // guarded by queue_mu_
  /// Drainer slots held (guarded by queue_mu_), at most
  /// kMaxBatchesInFlight; a slot is held from the submit that starts a
  /// drainer until a pass finds the queue empty. Capping them, and running
  /// one batch per pool task, keeps backlog in queue_ — where
  /// max_queue_depth can shed it — instead of in the pool's unbounded task
  /// queue, where it would be invisible to admission control.
  std::size_t drainers_ = 0;
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_ENGINE_H_
