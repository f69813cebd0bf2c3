// Process-wide metrics registry: the one place that answers "what is this
// process doing right now".
//
// Instruments are created on first use by name and live for the lifetime
// of the registry; the returned pointers are stable, so call sites resolve
// an instrument once (e.g. into a static or a member) and then record
// lock-free. Naming scheme (see docs/API_TOUR.md §Observability):
//
//   <subsystem>.<noun>[.<unit>]        e.g. serve.engine0.queries,
//                                           parallel.inline_runs,
//                                           span.train.epoch.seconds
//
// Names are dot-separated, lower_snake_case per segment, with durations
// suffixed `.seconds`. Per-instance subsystems (serving engines, caches)
// prefix their instruments with a unique scope obtained from NextScopeId.
//
// Exporters render every instrument, sorted by name within kind:
//   * ExportText        — human-readable one-line-per-instrument dump
//   * ExportPrometheus  — Prometheus text exposition (counters, gauges,
//                         and histograms as summaries with p50/p90/p99)
//
// All methods are thread-safe. Use Global() for the process-wide registry;
// separate Registry instances are for tests that need isolation.
#ifndef SMGCN_OBS_REGISTRY_H_
#define SMGCN_OBS_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace smgcn {
namespace obs {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry. Never destroyed, so instruments may be
  /// recorded into from static-destruction contexts and detached threads.
  static Registry& Global();

  /// Finds or creates the named instrument. Pointers remain valid for the
  /// registry's lifetime. A name identifies one instrument per kind; reusing
  /// a name across kinds is allowed but makes exports confusing — don't.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Allocates a unique instrument-name scope "<base><n>." (n counts up per
  /// base), e.g. NextScopeId("serve.engine") -> "serve.engine0.". Used by
  /// per-instance subsystems so concurrent instances never share counters.
  std::string NextScopeId(const std::string& base);

  /// Instrument names currently registered, sorted, for introspection.
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;
  std::vector<std::string> HistogramNames() const;

  /// Human-readable dump: one `<kind> <name> <fields>` line per instrument.
  std::string ExportText() const;

  /// Prometheus text exposition format. Names are prefixed `smgcn_` and
  /// sanitised (every non-[a-zA-Z0-9_] becomes '_'); histograms export as
  /// summaries with quantile 0.5/0.9/0.99 plus _sum and _count.
  std::string ExportPrometheus() const;

  /// Zeroes every instrument, keeping them registered (pointers stay
  /// valid). For tests and benchmark setup.
  void ResetAllForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::uint64_t> scope_ids_;
};

}  // namespace obs
}  // namespace smgcn

#endif  // SMGCN_OBS_REGISTRY_H_
