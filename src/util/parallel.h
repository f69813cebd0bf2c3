// Process-wide deterministic parallel-for layer used by the tensor and
// graph kernels.
//
// Contract: ParallelFor partitions [begin, end) into contiguous chunks and
// runs fn(chunk_begin, chunk_end) on the shared worker pool (the calling
// thread participates). Kernels built on it must partition over *output
// rows* only, so every output row is produced by the same sequential inner
// loop regardless of thread count — which makes results bit-identical for
// 1, 2 or N threads. Chunk boundaries and scheduling order are therefore
// allowed to vary; the values written may not.
//
// Nested calls (fn itself calling ParallelFor, directly or through a
// kernel) run inline on the current thread, so kernels never deadlock on
// pool capacity and never oversubscribe.
//
// RunBlocks is the claim loop underneath: ParallelFor runs it on the
// process-wide pool, and the serving engine runs it on its own pool. Either
// way the blocks execute inside a parallel region, so kernels nested in
// them run inline.
//
// SetNumThreads is the one process-wide parallelism knob: training and the
// tensor/graph kernels read it, and serving pools size themselves from
// GetNumThreads(). See docs/API_TOUR.md §Parallelism.
//
// The layer reports into obs::Registry::Global(): counters
// parallel.inline_runs / parallel.fanout_runs / parallel.tasks_dispatched /
// parallel.chunks_total / parallel.chunks_stolen, counted per RunBlocks call
// whichever pool it runs on, and gauge parallel.workers. Recording is a
// relaxed atomic increment, so the inline fast path stays cheap.
#ifndef SMGCN_UTIL_PARALLEL_H_
#define SMGCN_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace smgcn {

class ThreadPool;

namespace parallel {

/// Sets the process-wide worker count used by ParallelFor. 0 means
/// hardware_concurrency (at least 1); 1 makes every ParallelFor run inline.
/// Rebuilds the shared pool, so it must not race an in-flight ParallelFor:
/// call it at startup or between training/serving phases.
void SetNumThreads(std::size_t n);

/// Current worker count (including the calling thread).
std::size_t GetNumThreads();

/// hardware_concurrency clamped to at least 1.
std::size_t HardwareThreads();

/// Runs fn(chunk_begin, chunk_end) over contiguous chunks covering
/// [begin, end). Each chunk holds at least `grain` indices (grain 0 is
/// treated as 1), so cheap loops are not shredded into per-index tasks.
/// Runs inline when the range is small, a single thread is configured, or
/// the caller is already inside a ParallelFor.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn);

/// Runs fn(block_begin, block_end) over [0, n) in blocks of `block` indices
/// (0 is treated as 1), every block exactly once. The calling thread claims
/// blocks alongside up to min(blocks - 1, pool->num_threads()) helper tasks
/// on `pool`, so progress never depends on a free worker: the caller may be
/// one of `pool`'s own workers. With a null `pool` or a single block, fn runs
/// once over the whole range on the calling thread. Every call of fn runs
/// inside a parallel region.
void RunBlocks(ThreadPool* pool, std::size_t n, std::size_t block,
               const std::function<void(std::size_t, std::size_t)>& fn);

/// True while the current thread is executing inside a ParallelFor chunk or
/// a RunBlocks block (used by kernels to decide against nested fan-out;
/// exposed for tests).
bool InParallelRegion();

}  // namespace parallel
}  // namespace smgcn

#endif  // SMGCN_UTIL_PARALLEL_H_
