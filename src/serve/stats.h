// Serving metrics recording: latency, throughput and batch-size
// distribution.
//
// The instruments live in the process-wide smgcn::obs registry (each engine
// under its own `serve.engineN.` scope); StatsRecorder is the serving-side
// recording facade. Readers (benches, /metrics, run reports) read the
// registry directly.
#ifndef SMGCN_SERVE_STATS_H_
#define SMGCN_SERVE_STATS_H_

#include <cstddef>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/registry.h"

namespace smgcn {
namespace serve {

/// Thread-safe recorder the engine feeds. Creates its instruments in
/// `registry` (the global registry when null) under `prefix` (a unique
/// auto-allocated "serve.engineN." scope when empty):
///
///   <prefix>queries            counter
///   <prefix>batches            counter
///   <prefix>batched_queries    counter
///   <prefix>max_batch_size     gauge (atomic max)
///   <prefix>latency.seconds    histogram
///
/// Recording is lock-free. Reads taken while recorders are active are
/// weakly consistent across instruments — counts never tear, but e.g.
/// `queries` may already include a query whose latency sample is still in
/// flight.
class StatsRecorder {
 public:
  explicit StatsRecorder(obs::Registry* registry = nullptr,
                         std::string prefix = {});

  /// Records one answered query and its end-to-end latency.
  void RecordQuery(double latency_seconds);

  /// Records `count` answered queries that share one end-to-end latency —
  /// the batched-scoring case, where every query in a GEMM batch finishes
  /// at the same wall-clock instant. Equivalent to `count` RecordQuery
  /// calls but with one histogram and one counter update.
  void RecordQueries(std::size_t count, double latency_seconds);

  /// Records one executed GEMM covering `batch_size` queries.
  void RecordBatch(std::size_t batch_size);

  /// Registry scope the instruments live under, e.g. "serve.engine0.".
  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
  obs::Counter* queries_;
  obs::Counter* batches_;
  obs::Counter* batched_queries_;
  obs::Gauge* max_batch_size_;
  obs::Histogram* latency_;
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_STATS_H_
