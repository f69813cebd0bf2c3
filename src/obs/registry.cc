#include "src/obs/registry.h"

#include <cstdio>

// Header-inline on purpose: obs sits below util in the link order, so the
// escaper must not pull in libsmgcn_util.

namespace smgcn {
namespace obs {

namespace {

std::string FormatUint(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Prometheus metric name: `smgcn_` prefix, every other character class
/// collapsed to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "smgcn_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Curated # HELP text for well-known instrument families. Scoped names
/// carry a `<scope><N>.` prefix (e.g. "serve.engine0.submitted"), so match
/// on the trailing segment after the last '.'.
const char* HelpForFamily(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  const std::string tail = dot == std::string::npos ? name
                                                    : name.substr(dot + 1);
  if (tail == "submitted") return "Requests admitted to the serving queue.";
  if (tail == "shed") return "Requests rejected by admission control.";
  if (tail == "deadline_exceeded") {
    return "Requests answered with DEADLINE_EXCEEDED.";
  }
  if (tail == "slow_queries") {
    return "Queries over the slow-query-log latency threshold.";
  }
  if (tail == "connections") return "TCP connections accepted.";
  if (tail == "open_connections") return "TCP connections currently open.";
  if (tail == "rejected_connections") {
    return "TCP connections refused at the connection cap.";
  }
  if (tail == "http_requests") return "HTTP requests parsed.";
  if (tail == "binary_requests") return "Binary protocol frames admitted.";
  if (tail == "protocol_errors") {
    return "Malformed frames or HTTP heads rejected.";
  }
  if (tail == "cache_hits") return "Top-k cache hits.";
  if (tail == "cache_misses") return "Top-k cache misses.";
  if (tail == "queries") return "Queries scored.";
  if (tail == "batches") return "Micro-batches executed.";
  if (tail == "swaps") return "Model snapshot hot-swaps published.";
  if (tail == "publishes") return "Model versions published.";
  if (tail == "rollbacks") return "Model version rollbacks.";
  if (tail == "active_versions") {
    return "Model versions currently resident.";
  }
  if (tail == "latency_seconds" || tail == "latency") {
    return "End-to-end request latency in seconds.";
  }
  return nullptr;
}

/// One # HELP line per family: curated text when the family is known, a
/// generic derived-from-the-name line otherwise (Prometheus requires HELP
/// before TYPE for tools that validate exposition strictly).
std::string HelpLine(const std::string& raw_name, const std::string& prom) {
  const char* help = HelpForFamily(raw_name);
  std::string text =
      help != nullptr ? help : "Instrument '" + raw_name + "'.";
  // Escape per exposition format: backslash and newline.
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      escaped += "\\\\";
    } else if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped.push_back(c);
    }
  }
  return "# HELP " + prom + " " + escaped + "\n";
}

}  // namespace

Registry& Registry::Global() {
  // Leaked deliberately: instruments must outlive every recording thread,
  // including ones still running during static destruction.
  static Registry* global = new Registry();
  return *global;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string Registry::NextScopeId(const std::string& base) {
  std::lock_guard<std::mutex> lock(mu_);
  return base + FormatUint(scope_ids_[base]++) + ".";
}

std::vector<std::string> Registry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& entry : counters_) names.push_back(entry.first);
  return names;
}

std::vector<std::string> Registry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& entry : gauges_) names.push_back(entry.first);
  return names;
}

std::vector<std::string> Registry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& entry : histograms_) names.push_back(entry.first);
  return names;
}

std::string Registry::ExportText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "counter " + name + " " + FormatUint(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "gauge " + name + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    out += "histogram " + name + " count=" + FormatUint(hist->count()) +
           " mean=" + FormatDouble(hist->mean()) +
           " p50=" + FormatDouble(hist->Percentile(0.50)) +
           " p90=" + FormatDouble(hist->Percentile(0.90)) +
           " p99=" + FormatDouble(hist->Percentile(0.99)) +
           " max=" + FormatDouble(hist->max()) + "\n";
  }
  return out;
}

std::string Registry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name);
    out += HelpLine(name, prom);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + FormatUint(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusName(name);
    out += HelpLine(name, prom);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string prom = PrometheusName(name);
    out += HelpLine(name, prom);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} " + FormatDouble(hist->Percentile(0.50)) +
           "\n";
    out += prom + "{quantile=\"0.9\"} " + FormatDouble(hist->Percentile(0.90)) +
           "\n";
    out +=
        prom + "{quantile=\"0.99\"} " + FormatDouble(hist->Percentile(0.99)) +
        "\n";
    out += prom + "_sum " + FormatDouble(hist->sum()) + "\n";
    out += prom + "_count " + FormatUint(hist->count()) + "\n";
  }
  return out;
}

void Registry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->Reset();
  for (auto& entry : gauges_) entry.second->Reset();
  for (auto& entry : histograms_) entry.second->Reset();
}

}  // namespace obs
}  // namespace smgcn
