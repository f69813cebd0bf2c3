// Fixed-size FIFO thread pool: the workers behind parallel::ParallelFor
// and the serving engine's micro-batch executor.
#ifndef SMGCN_UTIL_THREAD_POOL_H_
#define SMGCN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace smgcn {

/// Simple FIFO thread pool. Tasks may not throw (the library is built
/// without exception-based error handling on hot paths).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one). A non-empty
  /// `thread_name_prefix` registers each worker with the trace buffer as
  /// "<prefix><index>" so pool threads are labelled in exported timelines.
  explicit ThreadPool(std::size_t num_threads,
                      std::string thread_name_prefix = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks submitted and not yet started by a worker.
  std::size_t pending() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace smgcn

#endif  // SMGCN_UTIL_THREAD_POOL_H_
