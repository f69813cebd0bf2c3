// Unit tests for src/util: Status/Result, string helpers, CSV writer,
// deterministic RNG, table printer and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/util/csv.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"
#include "src/util/thread_pool.h"

namespace smgcn {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad thing");
}

TEST(StatusTest, OkCodeNormalisesMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  ASSIGN_OR_RETURN(const int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_EQ(QuarterOf(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(QuarterOf(5).status().code(), StatusCode::kInvalidArgument);
}

Status FailWhenNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status CheckBoth(int a, int b) {
  RETURN_IF_ERROR(FailWhenNegative(a));
  RETURN_IF_ERROR(FailWhenNegative(b));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorShortCircuits) {
  EXPECT_TRUE(CheckBoth(1, 2).ok());
  EXPECT_FALSE(CheckBoth(-1, 2).ok());
  EXPECT_FALSE(CheckBoth(1, -2).ok());
}

// --------------------------------------------------------------------------
// String helpers
// --------------------------------------------------------------------------

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitWhitespaceSkipsRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t ").empty());
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \t\n "), "");
}

TEST(StringUtilTest, JoinAndAffixes) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(StartsWith("symptom_12", "symptom_"));
  EXPECT_FALSE(StartsWith("sym", "symptom_"));
  EXPECT_TRUE(EndsWith("model.weight", ".weight"));
  EXPECT_FALSE(EndsWith("w", ".weight"));
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("  -7 "), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("x").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e-3"), -1e-3);
  EXPECT_FALSE(ParseDouble("2.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

// --------------------------------------------------------------------------
// CSV
// --------------------------------------------------------------------------

TEST(CsvTest, WritesHeaderAndRows) {
  CsvWriter csv({"a", "b"});
  ASSERT_TRUE(csv.AddRow({"1", "2"}).ok());
  ASSERT_TRUE(csv.AddNumericRow({3.5, -0.25}).ok());
  EXPECT_EQ(csv.ToString(), "a,b\n1,2\n3.5,-0.25\n");
  EXPECT_EQ(csv.num_rows(), 2u);
}

TEST(CsvTest, RejectsWrongWidth) {
  CsvWriter csv({"a", "b"});
  EXPECT_EQ(csv.AddRow({"1"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(csv.AddRow({"1", "2", "3"}).code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvWriter csv({"x"});
  ASSERT_TRUE(csv.AddRow({"a,b"}).ok());
  ASSERT_TRUE(csv.AddRow({"say \"hi\""}).ok());
  ASSERT_TRUE(csv.AddRow({"line\nbreak"}).ok());
  EXPECT_EQ(csv.ToString(),
            "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n");
}

TEST(CsvTest, WriteFileFailsOnBadPath) {
  CsvWriter csv({"x"});
  EXPECT_EQ(csv.WriteFile("/nonexistent-dir/file.csv").code(),
            StatusCode::kIoError);
}

TEST(CsvTest, WriteFileRoundTrip) {
  CsvWriter csv({"k", "v"});
  ASSERT_TRUE(csv.AddRow({"a", "1"}).ok());
  const std::string path = testing::TempDir() + "/smgcn_csv_test.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "k,v\na,1\n");
}

// --------------------------------------------------------------------------
// Rng / Zipf
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 50; ++i) {
    any_diff = any_diff || (a.UniformInt(0, 1 << 20) != b.UniformInt(0, 1 << 20));
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformRealStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliRespectsP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(13);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeights) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Categorical({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const std::size_t v : sample) EXPECT_LT(v, 50u);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.Shuffle(&shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng fork = a.Fork();
  // Fork must not just clone the state.
  EXPECT_NE(a.UniformInt(0, 1 << 30), fork.UniformInt(0, 1 << 30));
}

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  ZipfDistribution zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    total += zipf.Pmf(i);
    if (i > 0) {
      EXPECT_LE(zipf.Pmf(i), zipf.Pmf(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SamplesSkewTowardHead) {
  ZipfDistribution zipf(50, 1.2);
  Rng rng(37);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 50);  // far above uniform share
}

TEST(ZipfTest, ExponentZeroIsUniform) {
  ZipfDistribution zipf(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(zipf.Pmf(i), 0.25, 1e-12);
}

// --------------------------------------------------------------------------
// TablePrinter
// --------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22 |"), std::string::npos);
}

TEST(TablePrinterTest, NumericRowFormatsPrecision) {
  TablePrinter table({"m", "a", "b"});
  table.AddNumericRow("row", {0.123456, 2.0}, 4);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("0.1235"), std::string::npos);
  EXPECT_NE(out.find("2.0000"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NE(table.ToString().find("| only |"), std::string::npos);
}

// --------------------------------------------------------------------------
// Stopwatch & ThreadPool
// --------------------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  ASSERT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), watch.ElapsedSeconds());  // ms >= s numerically
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}


TEST(LoggingTest, MinLevelRoundTrip) {
  const smgcn::LogLevel original = smgcn::GetMinLogLevel();
  smgcn::SetMinLogLevel(smgcn::LogLevel::kError);
  EXPECT_EQ(smgcn::GetMinLogLevel(), smgcn::LogLevel::kError);
  // Suppressed levels must not crash (sink-level filtering).
  LOG_DEBUG << "suppressed";
  LOG_INFO << "suppressed";
  smgcn::SetMinLogLevel(original);
}

TEST(LoggingTest, SinkCapturesFormattedLines) {
  std::vector<std::pair<smgcn::LogLevel, std::string>> captured;
  smgcn::SetLogSink(
      [&captured](smgcn::LogLevel level, const std::string& line) {
        captured.emplace_back(level, line);
      });
  LOG_INFO << "sink test message";
  LOG_WARNING << "second line";
  smgcn::SetLogSink(nullptr);  // restore stderr before `captured` dies
  LOG_INFO << "after restore";  // must not reach the removed sink
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, smgcn::LogLevel::kInfo);
  EXPECT_NE(captured[0].second.find("[INFO"), std::string::npos);
  EXPECT_NE(captured[0].second.find("sink test message"), std::string::npos);
  EXPECT_EQ(captured[1].first, smgcn::LogLevel::kWarning);
}

TEST(LoggingTest, SinkRespectsMinLevel) {
  const smgcn::LogLevel original = smgcn::GetMinLogLevel();
  std::vector<std::string> captured;
  smgcn::SetLogSink([&captured](smgcn::LogLevel, const std::string& line) {
    captured.push_back(line);
  });
  smgcn::SetMinLogLevel(smgcn::LogLevel::kWarning);
  LOG_INFO << "filtered out";
  LOG_WARNING << "kept";
  smgcn::SetLogSink(nullptr);
  smgcn::SetMinLogLevel(original);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("kept"), std::string::npos);
}

TEST(LoggingTest, ErrorsLoggedCounterTracksErrorLines) {
  smgcn::obs::Counter* errors =
      smgcn::obs::Registry::Global().GetCounter("log.errors_logged");
  smgcn::obs::Counter* messages =
      smgcn::obs::Registry::Global().GetCounter("log.messages");
  smgcn::SetLogSink([](smgcn::LogLevel, const std::string&) {});  // quiet
  const std::uint64_t errors_before = errors->value();
  const std::uint64_t messages_before = messages->value();
  LOG_INFO << "not an error";
  LOG_ERROR << "an error";
  smgcn::SetLogSink(nullptr);
  EXPECT_EQ(errors->value(), errors_before + 1);
  EXPECT_EQ(messages->value(), messages_before + 2);
}

TEST(LoggingTest, CheckMacrosPassOnTrueConditions) {
  SMGCN_CHECK(true) << "never printed";
  SMGCN_CHECK_EQ(2, 2);
  SMGCN_CHECK_LT(1, 2);
  SMGCN_CHECK_GE(2, 2);
  SMGCN_CHECK_OK(smgcn::Status::OK());
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(SMGCN_CHECK_EQ(1, 2), "Check failed");
  EXPECT_DEATH(SMGCN_CHECK_OK(smgcn::Status::Internal("boom")), "boom");
}

TEST(ThreadPoolTest, StressManyProducersManyTasks) {
  // The serving engine submits drainers from client threads while other
  // clients hammer the sync API; this stress mirrors that pattern —
  // several producer threads racing Submit against a worker pool, with
  // interleaved Waits.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  constexpr int kProducers = 6;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&sum, p, i] { sum.fetch_add(p * kTasksPerProducer + i); });
        if (i % 100 == 0) pool.Wait();  // interleave waits with submits
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Wait();
  long expected = 0;
  for (int i = 0; i < kProducers * kTasksPerProducer; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  smgcn::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(10); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

}  // namespace
}  // namespace smgcn
