#include "src/serve/slow_log.h"

#include <cstdio>
#include <sstream>
#include <utility>

namespace smgcn {
namespace serve {

namespace {
std::string Ms(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return std::string(buf);
}
}  // namespace

std::string SlowQueryRecord::ToString() const {
  std::ostringstream out;
  if (!request_id.empty()) out << "id=" << request_id << " ";
  if (!model.empty()) {
    out << "model=" << model;
    if (!model_version.empty()) out << "/" << model_version;
    out << " ";
  }
  out << "total=" << Ms(total_seconds) << " queue=" << Ms(queue_seconds)
      << " gemm=" << Ms(gemm_seconds)
      << " topk=" << Ms(topk_seconds) << " k=" << k << " batch=" << batch_size
      << (cache_hit ? " cache_hit" : "") << " symptoms=[";
  for (std::size_t i = 0; i < symptom_ids.size(); ++i) {
    if (i > 0) out << ",";
    out << symptom_ids[i];
  }
  out << "]";
  return out.str();
}

SlowQueryLog::SlowQueryLog(double threshold_seconds, std::size_t capacity,
                           obs::Registry* registry, const std::string& prefix)
    : threshold_seconds_(threshold_seconds),
      capacity_(capacity),
      enabled_(threshold_seconds > 0.0 && capacity > 0),
      slow_queries_(registry->GetCounter(prefix + "slow_queries")) {}

void SlowQueryLog::Record(SlowQueryRecord record) {
  if (!enabled_ || record.total_seconds < threshold_seconds_) return;
  slow_queries_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= capacity_) entries_.pop_front();
  entries_.push_back(std::move(record));
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryRecord>(entries_.begin(), entries_.end());
}

std::uint64_t SlowQueryLog::total_recorded() const {
  return slow_queries_->value();
}

std::string SlowQueryLog::RenderMarkdown() const {
  const std::vector<SlowQueryRecord> entries = Snapshot();
  std::ostringstream out;
  out << "Threshold: " << Ms(threshold_seconds_) << "; " << total_recorded()
      << " slow queries total, " << entries.size() << " retained.\n";
  if (entries.empty()) {
    out << "\n(no slow queries)\n";
    return out.str();
  }
  out << "\n| id | model | total | queue | gemm | topk | k | batch | cache | "
         "symptoms |\n|---|---|---|---|---|---|---|---|---|---|\n";
  for (const SlowQueryRecord& r : entries) {
    out << "| " << (r.request_id.empty() ? "-" : r.request_id) << " | ";
    if (r.model.empty()) {
      out << "-";
    } else {
      out << r.model;
      if (!r.model_version.empty()) out << "/" << r.model_version;
    }
    out << " | " << Ms(r.total_seconds) << " | " << Ms(r.queue_seconds)
        << " | " << Ms(r.gemm_seconds)
        << " | " << Ms(r.topk_seconds) << " | " << r.k << " | "
        << r.batch_size << " | " << (r.cache_hit ? "hit" : "miss") << " | [";
    for (std::size_t i = 0; i < r.symptom_ids.size(); ++i) {
      if (i > 0) out << ",";
      out << r.symptom_ids[i];
    }
    out << "] |\n";
  }
  return out.str();
}

}  // namespace serve
}  // namespace smgcn
