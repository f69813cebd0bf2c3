#include "src/serve/stats.h"

#include <utility>

namespace smgcn {
namespace serve {

StatsRecorder::StatsRecorder(obs::Registry* registry, std::string prefix) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Global();
  prefix_ = prefix.empty() ? reg.NextScopeId("serve.engine") : std::move(prefix);
  queries_ = reg.GetCounter(prefix_ + "queries");
  batches_ = reg.GetCounter(prefix_ + "batches");
  batched_queries_ = reg.GetCounter(prefix_ + "batched_queries");
  max_batch_size_ = reg.GetGauge(prefix_ + "max_batch_size");
  latency_ = reg.GetHistogram(prefix_ + "latency.seconds");
}

void StatsRecorder::RecordQuery(double latency_seconds) {
  latency_->Record(latency_seconds);
  queries_->Increment();
}

void StatsRecorder::RecordQueries(std::size_t count, double latency_seconds) {
  if (count == 0) return;
  latency_->Record(latency_seconds, count);
  queries_->Increment(count);
}

void StatsRecorder::RecordBatch(std::size_t batch_size) {
  batches_->Increment();
  batched_queries_->Increment(batch_size);
  max_batch_size_->SetToMax(static_cast<double>(batch_size));
}

}  // namespace serve
}  // namespace smgcn
