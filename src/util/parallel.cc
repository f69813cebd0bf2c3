#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace smgcn {
namespace parallel {

namespace {

std::mutex config_mu;
std::size_t configured_threads = 0;  // 0 = not yet resolved

// Registry instruments for the pool (see docs/API_TOUR.md §Observability).
// Resolved lazily so the registry exists before first use; recording is one
// relaxed atomic op, cheap enough for the inline fast path.
struct PoolMetrics {
  obs::Counter* inline_runs;       // RunBlocks calls run inline
  obs::Counter* fanout_runs;       // RunBlocks calls fanned out
  obs::Counter* tasks_dispatched;  // helper tasks handed to a pool
  obs::Counter* chunks_total;      // blocks executed (caller + helpers)
  obs::Counter* chunks_stolen;     // blocks executed by pool helpers
  obs::Gauge* workers;             // configured worker count
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return PoolMetrics{reg.GetCounter("parallel.inline_runs"),
                       reg.GetCounter("parallel.fanout_runs"),
                       reg.GetCounter("parallel.tasks_dispatched"),
                       reg.GetCounter("parallel.chunks_total"),
                       reg.GetCounter("parallel.chunks_stolen"),
                       reg.GetGauge("parallel.workers")};
  }();
  return metrics;
}

// Helpers only; the caller is worker zero, so a pool exists for n >= 2.
std::unique_ptr<ThreadPool>& PoolHolder() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

/// Sets the worker count and rebuilds the shared pool to match; the one
/// place a pool is made. Caller holds config_mu.
void ConfigureLocked(std::size_t n) {
  if (n == configured_threads) return;
  configured_threads = n;
  PoolHolder().reset();
  if (n > 1) {
    PoolHolder() = std::make_unique<ThreadPool>(n - 1, "parallel.worker");
  }
}

/// The worker count, resolving an unset one to the hardware (and making
/// its pool) first. Caller holds config_mu.
std::size_t ResolveLocked() {
  if (configured_threads == 0) ConfigureLocked(HardwareThreads());
  return configured_threads;
}

thread_local bool in_parallel_region = false;

/// Per-call shared state. Helpers that arrive after the caller has returned
/// (their block counter is exhausted) must still find this alive, hence the
/// shared_ptr ownership in every participant. `fn` points at the caller's
/// function: it is only called for a claimed block, and the caller does not
/// return before every claimed block is done.
struct RunState {
  std::atomic<std::size_t> next_block{0};
  std::atomic<std::size_t> done_blocks{0};
  std::size_t num_blocks = 0;
  std::size_t block = 0;
  std::size_t n = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;
};

void ClaimBlocks(const std::shared_ptr<RunState>& state, bool is_helper) {
  PoolMetrics& metrics = Metrics();
  const bool was_in_region = in_parallel_region;
  in_parallel_region = true;
  while (true) {
    const std::size_t b = state->next_block.fetch_add(1, std::memory_order_relaxed);
    if (b >= state->num_blocks) break;
    metrics.chunks_total->Increment();
    if (is_helper) metrics.chunks_stolen->Increment();
    const std::size_t block_begin = b * state->block;
    (*state->fn)(block_begin, std::min(block_begin + state->block, state->n));
    if (state->done_blocks.fetch_add(1) + 1 == state->num_blocks) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
  in_parallel_region = was_in_region;
}

}  // namespace

std::size_t HardwareThreads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

void SetNumThreads(std::size_t n) {
  if (n == 0) n = HardwareThreads();
  Metrics().workers->Set(static_cast<double>(n));
  std::lock_guard<std::mutex> lock(config_mu);
  ConfigureLocked(n);
}

std::size_t GetNumThreads() {
  std::size_t n;
  {
    std::lock_guard<std::mutex> lock(config_mu);
    n = ResolveLocked();
  }
  Metrics().workers->Set(static_cast<double>(n));
  return n;
}

bool InParallelRegion() { return in_parallel_region; }

void RunBlocks(ThreadPool* pool, std::size_t n, std::size_t block,
               const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (block == 0) block = 1;
  const std::size_t num_blocks = (n + block - 1) / block;
  if (pool == nullptr || num_blocks <= 1) {
    // Inline path: same fn over the full range, so single-thread output is
    // the reference the parallel path must match bit-for-bit. One relaxed
    // counter increment is the only instrumentation on this hot path.
    Metrics().inline_runs->Increment();
    const bool was_in_region = in_parallel_region;
    in_parallel_region = true;
    fn(0, n);
    in_parallel_region = was_in_region;
    return;
  }
  Metrics().fanout_runs->Increment();
  // Fanned-out regions show up on the caller's trace track; the id is
  // interned once, and when tracing is off the whole block is one branch.
  const bool traced = obs::trace::Enabled();
  std::uint32_t fanout_trace_id = 0;
  if (traced) {
    static const std::uint32_t interned_id =
        obs::trace::InternName("parallel.for");
    fanout_trace_id = interned_id;
    obs::trace::EmitBegin(fanout_trace_id);
  }

  auto state = std::make_shared<RunState>();
  state->num_blocks = num_blocks;
  state->block = block;
  state->n = n;
  state->fn = &fn;

  const std::size_t helpers = std::min(num_blocks - 1, pool->num_threads());
  Metrics().tasks_dispatched->Increment(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { ClaimBlocks(state, /*is_helper=*/true); });
  }
  ClaimBlocks(state, /*is_helper=*/false);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] {
      return state->done_blocks.load() == state->num_blocks;
    });
  }
  if (traced) obs::trace::EmitEnd(fanout_trace_id);
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;

  ThreadPool* pool = nullptr;
  std::size_t threads = 1;
  if (!in_parallel_region && n > grain) {
    std::lock_guard<std::mutex> lock(config_mu);
    threads = ResolveLocked();
    pool = PoolHolder().get();
  }
  // A few chunks per thread so uneven rows (e.g. CSR) still balance, but
  // never chunks smaller than the grain.
  const std::size_t num_chunks = std::min(threads * 4, (n + grain - 1) / grain);
  RunBlocks(pool, n, (n + num_chunks - 1) / num_chunks,
            [begin, &fn](std::size_t b, std::size_t e) {
              fn(begin + b, begin + e);
            });
}

}  // namespace parallel
}  // namespace smgcn
