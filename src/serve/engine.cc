#include "src/serve/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace serve {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Rows per parallel work unit; a multiple of the store kernel's query block
/// so every sub-batch still amortises herb-matrix streaming.
constexpr std::size_t kScoreBlockRows = 16;

/// Slow-query records retained per engine (bounded ring, oldest evicted).
constexpr std::size_t kSlowQueryLogCapacity = 128;

/// Drainers allowed at once: one batch scoring while the next is cut, enough
/// to keep the pool busy without racing ahead of it. Arrivals beyond what
/// they keep up with wait in the queue, where max_queue_depth can shed them
/// and the next cut grows to match the arrival rate.
constexpr std::size_t kMaxBatchesInFlight = 2;

/// Process-unique cache salts: a counter run through the query-key mixer so
/// consecutive publishes land in unrelated cache shards/buckets.
std::uint64_t NextSnapshotSalt() {
  static std::atomic<std::uint64_t> next{1};
  return CombineKey(0x5347434e53414c54ull /* "SGCNSALT" */,
                    next.fetch_add(1, std::memory_order_relaxed));
}

/// Process-unique request ids for the audit trail: a counter run through
/// the same mixer (so consecutive ids share no visible structure), rendered
/// as 16 lowercase hex chars. Formatted by hand: every request mints one,
/// and a printf-family call would cost more than the rest of admission.
std::string MintRequestId() {
  static std::atomic<std::uint64_t> next{1};
  std::uint64_t id = CombineKey(0x534d47434e524944ull /* "SMGCNRID" */,
                                next.fetch_add(1, std::memory_order_relaxed));
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; id >>= 4) {
    out[i] = "0123456789abcdef"[id & 0xf];
  }
  return out;
}

/// Marks the request on the Chrome trace timeline so a slow-log or
/// response id can be located among the serve.gemm/execute_batch spans.
/// Interning per id is a lock + string build, so it only runs while a
/// trace is being recorded.
void TraceRequestInstant(const std::string& request_id) {
  if (obs::trace::Enabled()) obs::trace::Instant("request/" + request_id);
}

/// An error Response: `status` with its message, the request's
/// correlation id, and the model/version of the snapshot the request was
/// bound to.
Response ErrorResponse(const Status& status, std::string request_id,
                       const ModelSnapshot& snap) {
  Response resp;
  resp.status = FromInternalStatus(status);
  resp.message = status.message();
  resp.request_id = std::move(request_id);
  resp.model = snap.store.model_name();
  resp.version = snap.version;
  return resp;
}
}  // namespace

Result<std::shared_ptr<const ModelSnapshot>> MakeModelSnapshot(
    core::InferenceCheckpoint checkpoint, std::string version,
    tensor::Precision precision) {
  if (version.empty()) {
    return Status::InvalidArgument("model version must be non-empty");
  }
  ASSIGN_OR_RETURN(EmbeddingStore store,
                   EmbeddingStore::Build(std::move(checkpoint), precision));
  return std::make_shared<const ModelSnapshot>(
      std::move(store), std::move(version), NextSnapshotSalt());
}

Result<std::shared_ptr<const ModelSnapshot>> MakeModelSnapshotFromArtifact(
    const core::MappedArtifact& artifact, std::string version) {
  if (version.empty()) {
    return Status::InvalidArgument("model version must be non-empty");
  }
  ASSIGN_OR_RETURN(EmbeddingStore store,
                   EmbeddingStore::BuildFromArtifact(artifact));
  return std::make_shared<const ModelSnapshot>(
      std::move(store), std::move(version), NextSnapshotSalt());
}

Result<std::unique_ptr<ServingEngine>> ServingEngine::CreateFromSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot,
    ServingEngineOptions options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be non-null");
  }
  if (options.max_batch_size == 0) {
    return Status::InvalidArgument("max_batch_size must be positive");
  }
  if (options.slow_query_threshold_ms < 0.0) {
    return Status::InvalidArgument("slow_query_threshold_ms must be non-negative");
  }
  // Pool sizing follows the process-wide smgcn::parallel worker count.
  if (options.num_threads == 0) options.num_threads = parallel::GetNumThreads();
  return std::unique_ptr<ServingEngine>(
      new ServingEngine(std::move(snapshot), options));
}

ServingEngine::ServingEngine(std::shared_ptr<const ModelSnapshot> snapshot,
                             ServingEngineOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      obs_prefix_(obs::Registry::Global().NextScopeId("serve.engine")),
      cache_(std::max<std::size_t>(options.cache_capacity, 1),
             &obs::Registry::Global(), obs_prefix_ + "cache."),
      cache_enabled_(options.cache_capacity > 0),
      slow_log_(options.slow_query_threshold_ms / 1e3, kSlowQueryLogCapacity,
                &obs::Registry::Global(), obs_prefix_),
      queries_(obs::Registry::Global().GetCounter(obs_prefix_ + "queries")),
      latency_(obs::Registry::Global().GetHistogram(obs_prefix_ +
                                                    "latency.seconds")),
      batches_(obs::Registry::Global().GetCounter(obs_prefix_ + "batches")),
      batched_queries_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "batched_queries")),
      max_batch_size_(
          obs::Registry::Global().GetGauge(obs_prefix_ + "max_batch_size")),
      publishes_(obs::Registry::Global().GetCounter(obs_prefix_ + "publishes")),
      shed_(obs::Registry::Global().GetCounter(obs_prefix_ + "shed")),
      deadline_exceeded_(
          obs::Registry::Global().GetCounter(obs_prefix_ + "deadline_exceeded")),
      submitted_(obs::Registry::Global().GetCounter("serve.submitted")),
      coalesce_span_(obs::Registry::Global().GetHistogram(
          obs::SpanHistogramName("serve.coalesce"))),
      gemm_span_(obs::Registry::Global().GetHistogram(
          obs::SpanHistogramName("serve.gemm"))),
      execute_span_(obs::Registry::Global().GetHistogram(
          obs::SpanHistogramName("serve.execute_batch"))),
      gemm_trace_id_(obs::trace::TraceBuffer::Global().InternName("serve.gemm")),
      execute_trace_id_(
          obs::trace::TraceBuffer::Global().InternName("serve.execute_batch")),
      publish_trace_id_(
          obs::trace::TraceBuffer::Global().InternName("serve.publish")),
      pool_(std::make_unique<ThreadPool>(options.num_threads, "serve.worker")) {}

ServingEngine::~ServingEngine() { Shutdown(); }

Status ServingEngine::PublishSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot must be non-null");
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  publishes_->Increment();
  obs::trace::EmitInstant(publish_trace_id_);
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> ServingEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::string ServingEngine::active_version() const {
  return Snapshot()->version;
}

const EmbeddingStore& ServingEngine::store() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_->store;
}

void ServingEngine::RecommendCanonical(
    const ModelSnapshot& snap, const std::vector<CanonicalQuery>& queries,
    std::size_t k, Response* out, std::vector<QueryStages>* stages) const {
  if (stages != nullptr) stages->assign(queries.size(), QueryStages{});
  // Rows still needing the GEMM: every query in dense mode, the cache
  // misses in ranked mode. Each key mixes in k, so one symptom set asked at
  // several k holds one entry per k, and the snapshot salt, which scopes an
  // entry to its publish: after a swap, old-version entries never match.
  const bool cached = k > 0 && cache_enabled_;
  std::vector<std::uint64_t> keys;
  if (cached) keys.reserve(queries.size());
  std::vector<std::size_t> misses;
  misses.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (cached) {
      keys.push_back(CombineKey(CombineKey(queries[i].key, k), snap.salt));
      if (cache_.Lookup(keys[i], queries[i].symptom_ids, k,
                        &out[i].herb_ids)) {
        if (stages != nullptr) (*stages)[i].cache_hit = true;
        continue;
      }
    }
    misses.push_back(i);
  }
  if (misses.empty()) return;
  // With one worker, that worker is usually the drainer running this very
  // batch, so a helper task could only queue behind it: score inline.
  parallel::RunBlocks(
      pool_->num_threads() > 1 ? pool_.get() : nullptr, misses.size(),
      kScoreBlockRows,
      [this, &snap, &misses, &queries, &keys, out, stages, k, cached](
          std::size_t begin, std::size_t end) {
        obs::ScopedSpan gemm_span(gemm_span_, gemm_trace_id_);
        // A block spanning every query (one block, no cache hits) scores
        // `queries` in place; any other block gathers its rows first.
        std::vector<CanonicalQuery> gathered;
        if (end - begin < queries.size()) {
          gathered.reserve(end - begin);
          for (std::size_t m = begin; m < end; ++m) {
            gathered.push_back(queries[misses[m]]);
          }
        }
        // Ranked rows are read straight off the kernel's score block (float
        // for f32/int8, double for f64); only dense rows are widened, and
        // that widening is part of scoring, inside the serve.gemm span.
        const EmbeddingStore::ScoreBlock scores =
            snap.store.Score(gathered.empty() ? queries : gathered);
        if (k == 0) {
          for (std::size_t m = begin; m < end; ++m) {
            scores.Widen(m - begin, &out[misses[m]].scores);
          }
        }
        const double gemm_seconds = gemm_span.Stop();
        const auto topk_start = std::chrono::steady_clock::now();
        for (std::size_t m = begin; k > 0 && m < end; ++m) {
          Response& resp = out[misses[m]];
          resp.herb_ids = scores.TopK(m - begin, k);
          if (cached) {
            cache_.Insert(keys[misses[m]], queries[misses[m]].symptom_ids, k,
                          resp.herb_ids);
          }
        }
        if (stages != nullptr) {
          // Stage shares: block time divided evenly over the block's
          // queries (rows of one GEMM are not separable). Each write goes
          // to a distinct index, so blocks never race.
          const std::size_t block = end - begin;
          const double topk_share =
              SecondsSince(topk_start) / static_cast<double>(block);
          const double gemm_share = gemm_seconds / static_cast<double>(block);
          for (std::size_t m = begin; m < end; ++m) {
            QueryStages& s = (*stages)[misses[m]];
            s.gemm_seconds = gemm_share;
            s.topk_seconds = topk_share;
            s.batch_size = block;
          }
        }
      });
  batches_->Increment();
  batched_queries_->Increment(misses.size());
  max_batch_size_->SetToMax(static_cast<double>(misses.size()));
}

Status ServingEngine::CheckPins(const Request& request,
                                const ModelSnapshot& snap) const {
  if (!request.model.empty() && request.model != snap.store.model_name()) {
    return Status::NotFound(StrFormat(
        "model '%s' is not served by this engine (hosting '%s')",
        request.model.c_str(), snap.store.model_name().c_str()));
  }
  if (!request.version.empty() && request.version != snap.version) {
    return Status::Unavailable(StrFormat(
        "version '%s' is not active (active version is '%s')",
        request.version.c_str(), snap.version.c_str()));
  }
  return Status::OK();
}

Status ServingEngine::Admit(const Request& request,
                            std::shared_ptr<const ModelSnapshot> snapshot,
                            bool async,
                            std::chrono::steady_clock::time_point now,
                            PendingRequest* out) const {
  // The correlation id exists from admission: every outcome — rejection,
  // shedding, deadline, success — is attributable to it.
  out->request_id =
      request.request_id.empty() ? MintRequestId() : request.request_id;
  TraceRequestInstant(out->request_id);
  // Pins are checked against the snapshot the request will be scored on —
  // no gap for a swap to slip into.
  out->snapshot = std::move(snapshot);
  out->enqueue_time = now;
  out->attribution = request.attribution;
  if (async && request.top_k == 0) {
    return Status::InvalidArgument(
        "dense-score mode (top_k == 0) is synchronous-only; use Handle");
  }
  RETURN_IF_ERROR(CheckPins(request, *out->snapshot));
  // A k beyond the herb catalog means "rank every herb": clamping here
  // makes k = H, H+1, H+100... one group, one GEMM and one cache entry (the
  // cache requires an exact k match) instead of one fragment each.
  out->k = std::min(request.top_k, out->snapshot->store.num_herbs());
  auto query =
      Canonicalize(request.symptoms, out->snapshot->store.num_symptoms());
  if (!query.ok()) return query.status();
  out->query = *std::move(query);
  // A budget the steady clock cannot represent from `now` (1e13 ms, inf) is
  // no deadline: converting it would overflow. NaN compares false: none.
  const std::chrono::duration<double, std::milli> budget(request.deadline_ms);
  if (budget.count() > 0.0 &&
      budget < std::chrono::steady_clock::time_point::max() - now) {
    out->deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  budget);
  } else {
    out->deadline = std::chrono::steady_clock::time_point::max();
  }
  return Status::OK();
}

Response ServingEngine::Handle(const Request& request) const {
  std::vector<Response> out = HandleBatch({request});
  return std::move(out.front());
}

std::vector<Response> ServingEngine::HandleBatch(
    const std::vector<Request>& requests) const {
  const auto start = std::chrono::steady_clock::now();
  // One snapshot per call: every request in the batch is answered on a
  // single version even if a Publish lands mid-flight.
  const std::shared_ptr<const ModelSnapshot> snap = Snapshot();
  std::vector<Response> out(requests.size());
  std::vector<PendingRequest> batch;
  batch.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    PendingRequest request;
    const Status admitted =
        Admit(requests[i], snap, /*async=*/false, start, &request);
    if (!admitted.ok()) {
      out[i] = ErrorResponse(admitted, std::move(request.request_id), *snap);
      continue;
    }
    Response* slot = &out[i];
    request.deliver = [slot](Response response) {
      *slot = std::move(response);
    };
    batch.push_back(std::move(request));
  }
  // The micro-batcher's executor, run inline: no queue and no pool hop.
  // Execution is stamped at the admission instant, so the slow log's queue
  // stage reads exactly 0 for synchronous requests.
  if (!batch.empty()) ExecuteBatch(std::move(batch), start);
  return out;
}

std::future<Response> ServingEngine::SubmitRequest(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  auto future = promise->get_future();
  SubmitRequest(std::move(request), [promise](Response resp) {
    promise->set_value(std::move(resp));
  });
  return future;
}

void ServingEngine::SubmitRequest(Request incoming,
                                  std::function<void(Response)> done) {
  submitted_->Increment();
  // Bind the request to the version active at admission; the batch executor
  // scores it on this snapshot even if a Publish lands first.
  PendingRequest request;
  const Status admitted = Admit(incoming, Snapshot(), /*async=*/true,
                                std::chrono::steady_clock::now(), &request);
  request.deliver = std::move(done);
  // Answers a request rejected at admission, before SubmitRequest returns.
  const auto reject = [&request](const Status& status) {
    request.deliver(ErrorResponse(status, std::move(request.request_id),
                                  *request.snapshot));
  };
  if (!admitted.ok()) return reject(admitted);

  bool shut_down = false;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutting_down_) {
      shut_down = true;
    } else if (options_.max_queue_depth > 0 &&
               queue_.size() >= options_.max_queue_depth) {
      shed = true;
    } else {
      queue_.push_back(std::move(request));
      // Work-conserving: with a slot free the request starts draining now;
      // otherwise a running drainer finds it before releasing its slot.
      // Submitted under queue_mu_ so Shutdown's pool_->Wait() covers every
      // drainer a queued request relies on.
      if (drainers_ < kMaxBatchesInFlight) {
        ++drainers_;
        pool_->Submit([this] { DrainQueue(); });
      }
    }
  }
  // Deliver rejections outside queue_mu_: the callback resolves a caller's
  // future and must never run under the engine's queue lock.
  if (shut_down) {
    return reject(Status::Unavailable(
        "ServingEngine is shut down; no new queries accepted"));
  }
  if (shed) {
    shed_->Increment();
    return reject(Status::ResourceExhausted(
        StrFormat("admission queue full (max_queue_depth=%zu); load-shedding",
                  options_.max_queue_depth)));
  }
}

void ServingEngine::DrainQueue() {
  std::vector<PendingRequest> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const std::size_t take = std::min(queue_.size(), options_.max_batch_size);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (!batch.empty()) {
    // Coalescing time: how long the oldest request waited to be cut — only
    // as long as both drainers were busy.
    const auto cut = std::chrono::steady_clock::now();
    coalesce_span_->Record(
        std::chrono::duration<double>(cut - batch.front().enqueue_time)
            .count());
    ExecuteBatch(std::move(batch), cut);
  }
  // One batch per pool task: the next cut queues behind the GEMM helpers
  // this batch submitted, so they run (or retire) first and the pool's task
  // queue stays bounded however long the overload lasts.
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (queue_.empty()) {
    --drainers_;
  } else {
    pool_->Submit([this] { DrainQueue(); });
  }
}

void ServingEngine::ExecuteBatch(
    std::vector<PendingRequest> batch,
    std::chrono::steady_clock::time_point execute_start) const {
  obs::ScopedSpan execute_span(execute_span_, execute_trace_id_);
  constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
  // Sweep requests whose budget already expired: scoring them would burn
  // GEMM time on answers nobody can use. They are answered (promptly) with
  // DeadlineExceeded instead of being dropped on the floor.
  {
    std::size_t live = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PendingRequest& request = batch[i];
      if (request.deadline != kNoDeadline &&
          execute_start >= request.deadline) {
        deadline_exceeded_->Increment();
        request.deliver(ErrorResponse(
            Status::DeadlineExceeded(StrFormat(
                "deadline expired before scoring (queued %.3f ms)",
                std::chrono::duration<double, std::milli>(
                    execute_start - request.enqueue_time)
                    .count())),
            std::move(request.request_id), *request.snapshot));
        continue;
      }
      if (live != i) batch[live] = std::move(batch[i]);
      ++live;
    }
    batch.resize(live);
  }
  // Requests in one batch may ask for different k (0 is dense mode) or —
  // across a hot swap — be bound to different snapshots; group by
  // (snapshot, k) so each group shares one scoring pass on its own version.
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&batch](std::size_t a, std::size_t b) {
                     if (batch[a].snapshot.get() != batch[b].snapshot.get()) {
                       return batch[a].snapshot.get() < batch[b].snapshot.get();
                     }
                     return batch[a].k < batch[b].k;
                   });
  std::size_t begin = 0;
  while (begin < order.size()) {
    std::size_t end = begin + 1;
    while (end < order.size() &&
           batch[order[end]].snapshot.get() ==
               batch[order[begin]].snapshot.get() &&
           batch[order[end]].k == batch[order[begin]].k) {
      ++end;
    }
    const ModelSnapshot& snap = *batch[order[begin]].snapshot;
    const std::size_t k = batch[order[begin]].k;
    // The group's queries move into the scorer's input; the per-request
    // steps below read them back from there.
    std::vector<CanonicalQuery> queries;
    queries.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      queries.push_back(std::move(batch[order[i]].query));
    }
    std::vector<Response> responses(queries.size());
    std::vector<QueryStages> stages;
    RecommendCanonical(snap, queries, k, responses.data(),
                       slow_log_.enabled() ? &stages : nullptr);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      PendingRequest& request = batch[order[begin + j]];
      Response& resp = responses[j];
      const double total_seconds = SecondsSince(request.enqueue_time);
      latency_->Record(total_seconds);
      queries_->Increment();
      // Ranked requests only: a dense row has no top-k stage to break down.
      if (k > 0 && slow_log_.enabled() &&
          total_seconds >= slow_log_.threshold_seconds()) {
        const QueryStages& s = stages[j];
        SlowQueryRecord record;
        record.symptom_ids = queries[j].symptom_ids;
        record.key = queries[j].key;
        record.k = k;
        record.total_seconds = total_seconds;
        record.queue_seconds = std::chrono::duration<double>(
                                   execute_start - request.enqueue_time)
                                   .count();
        record.gemm_seconds = s.gemm_seconds;
        record.topk_seconds = s.topk_seconds;
        record.cache_hit = s.cache_hit;
        record.batch_size = s.batch_size;
        record.request_id = request.request_id;
        record.model = snap.store.model_name();
        record.model_version = snap.version;
        slow_log_.Record(std::move(record));
      }
      // Attribution recomputes the query through the store's own scoring
      // path (bit-identical by row independence), so computing it here —
      // after the batched GEMM — decomposes exactly the scores just served.
      // Ids were validated at admission, so Attribute can only succeed; the
      // ok() guard keeps an attribution failure from failing the request.
      if (request.attribution && !resp.herb_ids.empty()) {
        auto attributed = snap.store.Attribute(queries[j], resp.herb_ids);
        if (attributed.ok()) resp.attribution = *std::move(attributed);
      }
      // Deadline post-check at delivery: a request that was feasible at
      // sweep time may still have blown its budget inside the GEMM; it
      // must never resolve kOk after its deadline, nor carry a payload.
      if (request.deadline != kNoDeadline &&
          std::chrono::steady_clock::now() >= request.deadline) {
        deadline_exceeded_->Increment();
        request.deliver(ErrorResponse(
            Status::DeadlineExceeded(
                StrFormat("deadline exceeded (answered after %.3f ms)",
                          total_seconds * 1e3)),
            std::move(request.request_id), snap));
        continue;
      }
      resp.request_id = std::move(request.request_id);
      resp.model = snap.store.model_name();
      resp.version = snap.version;
      request.deliver(std::move(resp));
    }
    begin = end;
  }
}

void ServingEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutting_down_ = true;
  }
  // No drainer starts after this point, and the running ones empty the
  // queue before they finish.
  pool_->Wait();
}

}  // namespace serve
}  // namespace smgcn
