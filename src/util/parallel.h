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
// SetNumThreads is the one process-wide parallelism knob: training and the
// tensor/graph kernels read it, and serving pools size themselves from
// GetNumThreads(). See docs/API_TOUR.md §Parallelism.
//
// The layer reports into obs::Registry::Global(): counters
// parallel.inline_runs / parallel.fanout_runs / parallel.tasks_dispatched /
// parallel.chunks_total / parallel.chunks_stolen and gauge
// parallel.workers. Recording is a relaxed atomic increment, so the inline
// fast path stays cheap.
#ifndef SMGCN_UTIL_PARALLEL_H_
#define SMGCN_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace smgcn {
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

/// True while the current thread is executing inside a ParallelFor chunk
/// (used by kernels to decide against nested fan-out; exposed for tests).
bool InParallelRegion();

}  // namespace parallel
}  // namespace smgcn

#endif  // SMGCN_UTIL_PARALLEL_H_
