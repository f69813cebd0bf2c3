// Tests for src/obs: instrument semantics (including concurrent exactness
// — counts are never lost under contention), histogram percentile edge
// cases, registry create-on-first-use and scope allocation, ScopedSpan
// nesting, and golden snapshots of the text and Prometheus exporters.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace smgcn {
namespace obs {
namespace {

// --------------------------------------------------------------------------
// Instruments
// --------------------------------------------------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddAndSetToMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.SetToMax(3.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.SetToMax(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  // Integer-valued doubles add exactly, so the CAS loop must account for
  // every one of the 8000 additions.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

TEST(GaugeTest, ConcurrentSetToMaxKeepsMaximum) {
  constexpr int kThreads = 8;
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) {
        g.SetToMax(static_cast<double>(t * 1000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 7999.0);
}

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
}

TEST(HistogramTest, SingleSampleIsReportedExactly) {
  // Regression: the bucket midpoint for a lone 100us sample is ~90.5us;
  // clamping to the recorded [min, max] must return the sample itself.
  Histogram h;
  h.Record(100e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 100e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 100e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100e-6);
  EXPECT_DOUBLE_EQ(h.min(), 100e-6);
  EXPECT_DOUBLE_EQ(h.max(), 100e-6);
}

TEST(HistogramTest, IdenticalSamplesClampToThemselves) {
  Histogram h;
  for (int i = 0; i < 4; ++i) h.Record(120e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 120e-6);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 120e-6);
  EXPECT_DOUBLE_EQ(h.mean(), 120e-6);
}

TEST(HistogramTest, OverflowBucketReportsMax) {
  // Regression: a sample beyond the last bucket's lower edge used to report
  // that bucket's midpoint (~2e8 for a 1e9 sample); the overflow bucket's
  // midpoint is meaningless, so it must report the recorded max instead.
  Histogram h;
  for (int i = 0; i < 9; ++i) h.Record(1e-6);
  h.Record(1e9);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1e9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // The low samples still dominate the median (~2x bucket resolution).
  EXPECT_GT(h.Percentile(0.5), 0.5e-6);
  EXPECT_LT(h.Percentile(0.5), 3e-6);
}

TEST(HistogramTest, PercentilesBracketMixedSamples) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(100e-6);
  for (int i = 0; i < 10; ++i) h.Record(10e-3);
  // p50 falls in the 100us bucket; clamped to min it is exact.
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 100e-6);
  // p99 falls in the 10ms bucket; ~2x bucket resolution.
  EXPECT_GT(h.Percentile(0.99), 5e-3);
  EXPECT_LT(h.Percentile(0.99), 20e-3);
  EXPECT_EQ(h.count(), 100u);
}

TEST(HistogramTest, SubMillisecondPercentilesResolveDistinctTails) {
  // Regression: with whole-octave buckets, 600us and 900us land in the same
  // bucket and a 90/10 mix reported p50 == p99 (the serving bench's
  // sub-millisecond rows all collapsed to one value). Quarter-octave
  // buckets plus intra-bucket interpolation must keep the tail distinct
  // and place each percentile within ~19% of the true sample.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(600e-6);
  for (int i = 0; i < 10; ++i) h.Record(900e-6);
  const double p50 = h.Percentile(0.50);
  const double p99 = h.Percentile(0.99);
  EXPECT_LT(p50 * 1.2, p99) << "p50=" << p50 << " p99=" << p99;
  EXPECT_GT(p50, 500e-6);
  EXPECT_LT(p50, 720e-6);
  EXPECT_GT(p99, 750e-6);
  EXPECT_LE(p99, 900e-6);  // clamped to the recorded max
}

TEST(HistogramTest, InterpolationIsMonotoneAcrossQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i) * 1e-6);
  double previous = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double value = h.Percentile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    // Quarter-octave buckets: within ~19% + interpolation error of truth.
    const double truth = q * 1000e-6;
    EXPECT_GT(value, truth * 0.8) << "q=" << q;
    EXPECT_LT(value, truth * 1.25) << "q=" << q;
    previous = value;
  }
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(h.count(), kTotal);
  // Every add applies the same increment, so the CAS-summed total equals
  // the sequential sum bit for bit.
  double expected_sum = 0.0;
  for (std::uint64_t i = 0; i < kTotal; ++i) expected_sum += 0.001;
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.001);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.001);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  h.Record(3.0);  // usable again
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.0);
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(RegistryTest, CreateOnFirstUseReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.GetCounter("a");
  EXPECT_EQ(reg.GetCounter("a"), a);
  EXPECT_NE(reg.GetCounter("b"), a);
  Gauge* g = reg.GetGauge("a");  // same name, different kind: distinct
  EXPECT_EQ(reg.GetGauge("a"), g);
  Histogram* h = reg.GetHistogram("a");
  EXPECT_EQ(reg.GetHistogram("a"), h);
}

TEST(RegistryTest, NextScopeIdAllocatesUniquePerBase) {
  Registry reg;
  EXPECT_EQ(reg.NextScopeId("serve.engine"), "serve.engine0.");
  EXPECT_EQ(reg.NextScopeId("serve.engine"), "serve.engine1.");
  EXPECT_EQ(reg.NextScopeId("serve.cache"), "serve.cache0.");
}

TEST(RegistryTest, NamesAreSortedAndComplete) {
  Registry reg;
  reg.GetCounter("z");
  reg.GetCounter("a");
  reg.GetGauge("g");
  reg.GetHistogram("h");
  EXPECT_EQ(reg.CounterNames(), (std::vector<std::string>{"a", "z"}));
  EXPECT_EQ(reg.GaugeNames(), (std::vector<std::string>{"g"}));
  EXPECT_EQ(reg.HistogramNames(), (std::vector<std::string>{"h"}));
}

TEST(RegistryTest, ConcurrentMutationIsExact) {
  // Threads race both instrument creation (first use of a shared name) and
  // recording; totals must come out exact.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string own = "thread." + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        reg.GetCounter("shared")->Increment();
        reg.GetCounter(own)->Increment();
        reg.GetHistogram("shared.hist")->Record(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("thread." + std::to_string(t))->value(),
              static_cast<std::uint64_t>(kPerThread));
  }
  EXPECT_EQ(reg.GetHistogram("shared.hist")->count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, ResetAllKeepsInstrumentsRegistered) {
  Registry reg;
  Counter* c = reg.GetCounter("c");
  c->Increment(7);
  reg.GetGauge("g")->Set(1.5);
  reg.GetHistogram("h")->Record(2.0);
  reg.ResetAllForTest();
  EXPECT_EQ(reg.GetCounter("c"), c);  // pointer survives
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g")->value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("h")->count(), 0u);
  EXPECT_EQ(reg.CounterNames(), (std::vector<std::string>{"c"}));
}

TEST(RegistryTest, GlobalIsASingleton) {
  Registry& a = Registry::Global();
  Registry& b = Registry::Global();
  EXPECT_EQ(&a, &b);
  // The low-level subsystems auto-register into it; just confirm creating
  // an instrument works without touching their counts.
  Counter* c = a.GetCounter("obs_test.global_probe");
  c->Increment();
  EXPECT_GE(c->value(), 1u);
}

// --------------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------------

TEST(SpanTest, RecordsIntoSinkOnDestruction) {
  Histogram h;
  {
    ScopedSpan span(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
}

TEST(SpanTest, StopIsIdempotentAndReturnsElapsed) {
  Histogram h;
  ScopedSpan span(&h);
  const double first = span.Stop();
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(span.Stop(), first);  // second Stop: no-op, same value
  EXPECT_EQ(h.count(), 1u);              // destructor must not re-record
}

TEST(SpanTest, DepthTracksNesting) {
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  {
    ScopedSpan outer(static_cast<Histogram*>(nullptr));
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    {
      ScopedSpan inner(static_cast<Histogram*>(nullptr));
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
      inner.Stop();
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    }
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
}

TEST(SpanTest, NameBasedSpanUsesConventionalHistogram) {
  EXPECT_EQ(SpanHistogramName("train.epoch"), "span.train.epoch.seconds");
  Registry reg;
  {
    ScopedSpan span(&reg, "unit.test");
  }
  EXPECT_EQ(reg.GetHistogram("span.unit.test.seconds")->count(), 1u);
}

// --------------------------------------------------------------------------
// Exporters (golden snapshots; formatting is deterministic by design)
// --------------------------------------------------------------------------

Registry* GoldenRegistry() {
  // Static so the golden tests share one instance; values are only
  // written here, once. The serve.modelmanager.* instruments mirror what a
  // ModelManager registers (src/serve/model_manager.h) so the exporters'
  // rendering of the model-lifecycle metrics is pinned here.
  static Registry* reg = [] {
    auto* r = new Registry();
    r->GetCounter("a.count")->Increment(5);
    r->GetGauge("b.gauge")->Set(2.5);
    r->GetHistogram("c.hist")->Record(0.001);
    r->GetCounter("serve.modelmanager.publishes")->Increment(3);
    r->GetCounter("serve.modelmanager.rollbacks")->Increment(1);
    r->GetGauge("serve.modelmanager.active_versions")->Set(4);
    r->GetHistogram("serve.modelmanager.artifact_open.seconds")->Record(0.001);
    return r;
  }();
  return reg;
}

TEST(ExporterTest, TextGolden) {
  EXPECT_EQ(GoldenRegistry()->ExportText(),
            "counter a.count 5\n"
            "counter serve.modelmanager.publishes 3\n"
            "counter serve.modelmanager.rollbacks 1\n"
            "gauge b.gauge 2.5\n"
            "gauge serve.modelmanager.active_versions 4\n"
            "histogram c.hist count=1 mean=0.001 p50=0.001 p90=0.001 "
            "p99=0.001 max=0.001\n"
            "histogram serve.modelmanager.artifact_open.seconds count=1 "
            "mean=0.001 p50=0.001 p90=0.001 p99=0.001 max=0.001\n");
}

TEST(ExporterTest, PrometheusGolden) {
  EXPECT_EQ(GoldenRegistry()->ExportPrometheus(),
            "# HELP smgcn_a_count Instrument 'a.count'.\n"
            "# TYPE smgcn_a_count counter\n"
            "smgcn_a_count 5\n"
            "# HELP smgcn_serve_modelmanager_publishes Model versions "
            "published.\n"
            "# TYPE smgcn_serve_modelmanager_publishes counter\n"
            "smgcn_serve_modelmanager_publishes 3\n"
            "# HELP smgcn_serve_modelmanager_rollbacks Model version "
            "rollbacks.\n"
            "# TYPE smgcn_serve_modelmanager_rollbacks counter\n"
            "smgcn_serve_modelmanager_rollbacks 1\n"
            "# HELP smgcn_b_gauge Instrument 'b.gauge'.\n"
            "# TYPE smgcn_b_gauge gauge\n"
            "smgcn_b_gauge 2.5\n"
            "# HELP smgcn_serve_modelmanager_active_versions Model versions "
            "currently resident.\n"
            "# TYPE smgcn_serve_modelmanager_active_versions gauge\n"
            "smgcn_serve_modelmanager_active_versions 4\n"
            "# HELP smgcn_c_hist Instrument 'c.hist'.\n"
            "# TYPE smgcn_c_hist summary\n"
            "smgcn_c_hist{quantile=\"0.5\"} 0.001\n"
            "smgcn_c_hist{quantile=\"0.9\"} 0.001\n"
            "smgcn_c_hist{quantile=\"0.99\"} 0.001\n"
            "smgcn_c_hist_sum 0.001\n"
            "smgcn_c_hist_count 1\n"
            "# HELP smgcn_serve_modelmanager_artifact_open_seconds Instrument "
            "'serve.modelmanager.artifact_open.seconds'.\n"
            "# TYPE smgcn_serve_modelmanager_artifact_open_seconds summary\n"
            "smgcn_serve_modelmanager_artifact_open_seconds{quantile=\"0.5\"} "
            "0.001\n"
            "smgcn_serve_modelmanager_artifact_open_seconds{quantile=\"0.9\"} "
            "0.001\n"
            "smgcn_serve_modelmanager_artifact_open_seconds{quantile=\"0.99\"} "
            "0.001\n"
            "smgcn_serve_modelmanager_artifact_open_seconds_sum 0.001\n"
            "smgcn_serve_modelmanager_artifact_open_seconds_count 1\n");
}

TEST(ExporterTest, EmptyRegistryExportsNothing) {
  Registry reg;
  EXPECT_EQ(reg.ExportText(), "");
  EXPECT_EQ(reg.ExportPrometheus(), "");
}

}  // namespace
}  // namespace obs
}  // namespace smgcn
