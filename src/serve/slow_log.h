// Slow-query log for the serving engine.
//
// Queries whose end-to-end latency crosses a configurable threshold are
// recorded with their canonical form and a per-stage breakdown (queue →
// GEMM → top-k), so tail latency can be attributed to a stage
// instead of guessed at from aggregate histograms. The log is a bounded
// ring: old entries are evicted, the total count of slow queries lives in
// the `<prefix>slow_queries` registry counter.
//
// Disabled by default (threshold 0); see ServingEngineOptions.
#ifndef SMGCN_SERVE_SLOW_LOG_H_
#define SMGCN_SERVE_SLOW_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/registry.h"

namespace smgcn {
namespace serve {

/// One slow query: what was asked and where its latency went. Stage times
/// for batched execution are the query's share of its block (block stage
/// time / block size); queue is zero on the synchronous path.
struct SlowQueryRecord {
  std::vector<int> symptom_ids;  // canonical (sorted, deduplicated)
  std::uint64_t key = 0;         // canonical query key
  std::size_t k = 0;             // top-k as scored (clamped to catalog)
  double total_seconds = 0.0;
  double queue_seconds = 0.0;     // Submit → batch cut (async only)
  double gemm_seconds = 0.0;      // share of the scoring GEMM
  double topk_seconds = 0.0;      // share of selection + cache insert
  bool cache_hit = false;         // answered from the top-k cache
  std::size_t batch_size = 0;     // queries scored alongside this one
  std::string request_id;         // correlation id (audit trail)
  std::string model;              // which model answered
  std::string model_version;      // which publish answered

  /// One human-readable line, e.g.
  /// "id=a1b2 model=demo/v3 total=12.3ms queue=8.1ms gemm=2.8ms
  ///  topk=0.4ms k=10 batch=64 symptoms=[1,4,9]".
  std::string ToString() const;
};

/// Thread-safe bounded log of SlowQueryRecords. Recording is mutex-guarded
/// but only happens for queries already past the threshold, so the fast
/// path pays one branch.
class SlowQueryLog {
 public:
  /// `threshold_seconds <= 0` or `capacity == 0` disables the log (enabled()
  /// is false and Record() drops everything). The eviction-independent
  /// total is counted in `<prefix>slow_queries` of `registry`.
  SlowQueryLog(double threshold_seconds, std::size_t capacity,
               obs::Registry* registry, const std::string& prefix);

  bool enabled() const { return enabled_; }
  double threshold_seconds() const { return threshold_seconds_; }

  /// Records `record` if the log is enabled and record.total_seconds is at
  /// or above the threshold; evicts the oldest entry when full.
  void Record(SlowQueryRecord record);

  /// Copy of the retained entries, oldest first.
  std::vector<SlowQueryRecord> Snapshot() const;

  /// Total slow queries seen (including evicted entries).
  std::uint64_t total_recorded() const;

  /// The retained entries as a Markdown table (for RunReport sections);
  /// "(no slow queries)" when empty.
  std::string RenderMarkdown() const;

 private:
  const double threshold_seconds_;
  const std::size_t capacity_;
  const bool enabled_;
  obs::Counter* slow_queries_;  // <prefix>slow_queries
  mutable std::mutex mu_;
  std::deque<SlowQueryRecord> entries_;  // guarded by mu_
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_SLOW_LOG_H_
