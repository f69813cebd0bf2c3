// Overload behaviour of the socket front-end: a pipelined closed-loop pass
// estimates a starting rate, an open-loop ramp then grows the offered load
// until the admission queue actually sheds (the OK rate at that point is
// the server's sustainable capacity), and finally an open-loop sweep offers
// {0.25 .. 2.0}x that capacity in Zipf-skewed symptom traffic (prescription
// symptom sets replayed from TcmGenerator's synthetic corpus) over the
// binary wire protocol. Latency is measured from the moment the request
// frame is written to the socket; how far the (colocated, CPU-sharing)
// generator fell behind its own schedule is reported separately as
// send_lag so a starved sender cannot masquerade as server queueing.
//
// What the sweep must show (the PR's acceptance bars):
//   * below saturation, essentially nothing is shed;
//   * past saturation the server answers kShedding (RESOURCE_EXHAUSTED)
//     rather than queueing without bound — the shed rate climbs with the
//     offered load while achieved OK throughput stays near capacity;
//   * the bounded admission queue keeps the p99 of *accepted* requests
//     within 2x its pre-saturation level;
//   * zero transport errors or crashes at any step.
// A final step repeats the deepest overload with a per-request deadline,
// showing the deadline path (kDeadlineExceeded) composing with shedding.
//
// Writes bench_results/zipf_load.csv.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/checkpoint.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/obs/registry.h"
#include "src/serve/model_manager.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace bench {
namespace {

// Much heavier than the paper's corpus (360 symptoms / 753 herbs / d=64)
// on purpose: the load generator shares the host with the server, so the
// sweep only demonstrates overload if scoring — not frame handling, not
// the senders — is the clear bottleneck. Scoring cost scales with
// herbs x dim; this sizing puts capacity in the low thousands of QPS on
// one core while encoding/sending a frame costs microseconds, letting the
// same host offer far more than the server can absorb.
constexpr std::size_t kNumSymptoms = 360;
constexpr std::size_t kNumHerbs = 6000;
constexpr std::size_t kDim = 512;
constexpr std::size_t kTopK = 10;
constexpr int kConnections = 4;
/// Pipelined requests per connection during calibration: enough in flight
/// (4 x 16 = 64) to keep the drainers' batches full, which is where the
/// server's real (batched) capacity lives — a plain call-and-wait loop
/// would measure round-trip latency instead — while staying at the
/// admission-queue depth so calibration itself does not shed.
constexpr int kCalibrationWindow = 16;
constexpr double kCalibrationSeconds = 2.0;
constexpr double kStepSeconds = 3.0;
/// Leading slice of every open-loop step that sends on schedule but is
/// excluded from the counts: fresh threads, fresh connections and a cold
/// engine make the first few hundred milliseconds unrepresentative.
constexpr double kWarmupSeconds = 0.5;
/// Small, matched kernel socket buffers on both sides (the kernel rounds
/// up to its floor). On a host where the load generator and the server
/// share the CPU, the server's read loops starve whenever scoring
/// saturates — with default (multi-megabyte) buffers, seconds of requests
/// would queue in the kernel where admission control cannot see or shed
/// them. Bounding the buffers turns that invisible queue into prompt TCP
/// backpressure on Send(), which the generator reports as send lag.
constexpr int kSocketBufferBytes = 4096;

core::InferenceCheckpoint MakeCheckpoint() {
  Rng rng(20260808);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "bench-zipf";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(kNumSymptoms, kDim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(kNumHerbs, kDim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = true;
  ckpt.si_weight = tensor::Matrix::RandomNormal(kDim, kDim, 0.0, 0.3, &rng);
  ckpt.si_bias = tensor::Matrix::RandomNormal(1, kDim, 0.0, 0.3, &rng);
  return ckpt;
}

/// The traffic trace: prescription symptom sets from the synthetic TCM
/// corpus at paper scale. TcmGenerator draws symptom popularity from a
/// Zipf law (symptom_zipf = 0.8), so replaying prescriptions reproduces
/// the head-heavy query distribution real serving sees.
std::vector<std::vector<int>> MakeTrace() {
  data::TcmGeneratorConfig config;
  config.num_symptoms = kNumSymptoms;
  config.num_herbs = kNumHerbs;
  config.num_syndromes = 24;
  config.num_prescriptions = 2000;
  config.seed = 4242;
  data::TcmGenerator generator(config);
  auto corpus = generator.Generate();
  SMGCN_CHECK_OK(corpus.status());
  std::vector<std::vector<int>> trace;
  trace.reserve(corpus->size());
  for (const auto& prescription : corpus->prescriptions()) {
    trace.push_back(prescription.symptoms);
  }
  SMGCN_CHECK(!trace.empty());
  return trace;
}

struct StepResult {
  std::string step;
  double offered_qps = 0.0;   // 0 for the closed-loop calibration row
  double achieved_qps = 0.0;  // OK responses per second
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other = 0;
  std::uint64_t transport_errors = 0;
  double shed_rate = 0.0;  // shed / all responses
  double p50_ms = 0.0;     // accepted (OK) only, from actual send time
  double p99_ms = 0.0;
  /// p99 of how late each send happened versus its open-loop schedule —
  /// nonzero means the generator, not the server, was the laggard.
  double send_lag_p99_ms = 0.0;
};

void Accumulate(StepResult* step, const serve::Response& response,
                double latency_seconds, obs::Histogram* ok_latency) {
  switch (response.status) {
    case serve::StatusCode::kOk:
      ++step->ok;
      ok_latency->Record(latency_seconds);
      break;
    case serve::StatusCode::kShedding:
      ++step->shed;
      break;
    case serve::StatusCode::kDeadlineExceeded:
      ++step->deadline_exceeded;
      break;
    default:
      ++step->other;
      break;
  }
}

/// Closed-loop calibration: kConnections workers each keep
/// kCalibrationWindow pipelined requests in flight for `seconds` (send one
/// per response received), so the engine's batches stay full and the
/// aggregate OK rate estimates the server's *batched* capacity — the
/// number the open-loop sweep multiplies. Latency here is per-window, not
/// comparable to the sweep's scheduled-time latency, so only the rate is
/// reported.
StepResult RunClosedLoop(std::uint16_t port,
                         const std::vector<std::vector<int>>& trace,
                         double seconds) {
  StepResult step;
  step.step = "closed_loop";
  obs::Histogram ok_latency;
  std::mutex mu;  // guards step + ok_latency
  Stopwatch wall;
  const auto stop_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(seconds * 1e3));
  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(77 + c);
      net::ClientOptions options;
      options.port = port;
      options.send_buffer_bytes = kSocketBufferBytes;
      auto client = net::Client::Connect(options);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++step.transport_errors;
        return;
      }
      const auto send_one = [&]() -> bool {
        serve::Request request;
        request.symptoms = trace[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(trace.size()) - 1))];
        request.top_k = kTopK;
        return (*client)->Send(request).ok();
      };
      int inflight = 0;
      for (; inflight < kCalibrationWindow; ++inflight) {
        if (!send_one()) {
          std::lock_guard<std::mutex> lock(mu);
          ++step.transport_errors;
          return;
        }
      }
      while (inflight > 0) {
        auto response = (*client)->Receive();
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!response.ok()) {
            ++step.transport_errors;
            return;
          }
          Accumulate(&step, *response, 0.0, &ok_latency);
        }
        --inflight;
        if (std::chrono::steady_clock::now() < stop_at) {
          if (!send_one()) {
            std::lock_guard<std::mutex> lock(mu);
            ++step.transport_errors;
            return;
          }
          ++inflight;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  // Wall time, not nominal seconds: the in-flight tail drains after
  // stop_at, and counting those completions against the nominal window
  // would overstate the rate.
  step.achieved_qps = static_cast<double>(step.ok) / wall.ElapsedSeconds();
  const std::uint64_t answered =
      step.ok + step.shed + step.deadline_exceeded + step.other;
  step.shed_rate = answered == 0
                       ? 0.0
                       : static_cast<double>(step.shed) / answered;
  return step;
}

/// One open-loop step: kConnections pipelined connections each send at a
/// fixed schedule (offered_qps / kConnections each) for `seconds`, reading
/// responses opportunistically between sends and draining at the end.
/// A sender that falls behind sends immediately on catch-up; its lateness
/// is tracked as send_lag rather than folded into request latency, because
/// on a shared host the generator starving for CPU says nothing about the
/// server's queue discipline.
StepResult RunOpenLoop(const std::string& label, std::uint16_t port,
                       const std::vector<std::vector<int>>& trace,
                       double offered_qps, double seconds,
                       double deadline_ms) {
  StepResult step;
  step.step = label;
  step.offered_qps = offered_qps;
  obs::Histogram ok_latency;
  obs::Histogram send_lag;
  std::mutex mu;  // guards step + ok_latency + send_lag
  Stopwatch wall;
  const double interval_s = kConnections / offered_qps;
  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(909 + c);
      net::ClientOptions options;
      options.port = port;
      options.timeout_ms = 20000;
      options.send_buffer_bytes = kSocketBufferBytes;
      auto client = net::Client::Connect(options);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++step.transport_errors;
        return;
      }
      // Actual send times of requests whose responses are still
      // outstanding; the wire protocol answers in order, so front() always
      // matches the next response. Warm-up sends carry measured = false
      // and are excluded from every count.
      struct Outstanding {
        std::chrono::steady_clock::time_point sent;
        bool measured = false;
      };
      std::deque<Outstanding> scheduled;
      const auto start = std::chrono::steady_clock::now();
      const auto receive_ready = [&]() -> bool {
        while (!scheduled.empty()) {
          // Only read frames that are already (at least partially) here.
          auto pending = (*client)->Poll(0);
          if (!pending.ok() || !*pending) return pending.ok();
          auto response = (*client)->Receive();
          const auto now = std::chrono::steady_clock::now();
          std::lock_guard<std::mutex> lock(mu);
          if (!response.ok()) {
            ++step.transport_errors;
            return false;
          }
          if (scheduled.front().measured) {
            Accumulate(
                &step, *response,
                std::chrono::duration<double>(now - scheduled.front().sent)
                    .count(),
                &ok_latency);
          }
          scheduled.pop_front();
        }
        return true;
      };
      const long total = static_cast<long>(seconds / interval_s);
      for (long i = 0; i < total; ++i) {
        const auto send_at =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(i * interval_s));
        while (std::chrono::steady_clock::now() < send_at) {
          if (!receive_ready()) return;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        serve::Request request;
        request.symptoms = trace[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(trace.size()) - 1))];
        request.top_k = kTopK;
        request.deadline_ms = deadline_ms;
        const bool measured = i * interval_s >= kWarmupSeconds;
        const auto send_time = std::chrono::steady_clock::now();
        scheduled.push_back({send_time, measured});
        if (measured) {
          std::lock_guard<std::mutex> lock(mu);
          send_lag.Record(
              std::chrono::duration<double>(send_time - send_at).count());
        }
        if (!(*client)->Send(request).ok()) {
          std::lock_guard<std::mutex> lock(mu);
          ++step.transport_errors;
          return;
        }
        if (!receive_ready()) return;
      }
      // Drain the tail.
      while (!scheduled.empty()) {
        auto response = (*client)->Receive();
        const auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(mu);
        if (!response.ok()) {
          ++step.transport_errors;
          return;
        }
        if (scheduled.front().measured) {
          Accumulate(
              &step, *response,
              std::chrono::duration<double>(now - scheduled.front().sent)
                  .count(),
              &ok_latency);
        }
        scheduled.pop_front();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  // Wall time includes the drain of the in-flight tail — see RunClosedLoop.
  // The warm-up slice is excluded from both the counts and the window.
  step.achieved_qps = static_cast<double>(step.ok) /
                      std::max(0.1, wall.ElapsedSeconds() - kWarmupSeconds);
  step.p50_ms = ok_latency.Percentile(0.50) * 1e3;
  step.p99_ms = ok_latency.Percentile(0.99) * 1e3;
  step.send_lag_p99_ms = send_lag.Percentile(0.99) * 1e3;
  const std::uint64_t answered =
      step.ok + step.shed + step.deadline_exceeded + step.other;
  step.shed_rate = answered == 0
                       ? 0.0
                       : static_cast<double>(step.shed) / answered;
  return step;
}

bool Run() {
  PrintHeader("Zipf load sweep — overload behaviour of the socket front-end",
              "open-loop load past saturation must shed, not collapse "
              "(bounded admission queue, PR 9)");

  serve::ModelManagerOptions manager_options;
  // Batch bound equal to the queue bound: a full admission queue is
  // exactly one full batch. There is no coalesce window: the drainers cut
  // whatever has queued while they were busy, so batches stay small below
  // the knee and grow to this bound past it, and an accepted request waits
  // at most about one batch execution before it is cut.
  manager_options.engine_options.max_batch_size = 16;
  // No cache: Zipf repeats would otherwise serve from the hot set and the
  // sweep would measure the cache, not the scoring capacity.
  manager_options.engine_options.cache_capacity = 0;
  // The tentpole under test: bounded admission. A fraction of one batch
  // deep, so an accepted request waits at most about one batch execution
  // plus a short queue — which is what keeps the p99 of accepted requests
  // flat at overload.
  manager_options.engine_options.max_queue_depth = 16;
  auto manager = serve::ModelManager::Create(manager_options);
  SMGCN_CHECK_OK(manager.status());
  SMGCN_CHECK_OK((*manager)->Publish(MakeCheckpoint(), "v1").status());

  net::ServerOptions server_options;
  server_options.max_pipeline = 4096;  // open-loop: do not self-throttle
  server_options.recv_buffer_bytes = kSocketBufferBytes;
  auto server = net::Server::Start(manager->get(), server_options);
  SMGCN_CHECK_OK(server.status());

  const std::vector<std::vector<int>> trace = MakeTrace();
  std::printf("corpus trace: %zu prescriptions, %zu symptoms, %zu herbs, "
              "d=%zu; %d connections\n\n",
              trace.size(), kNumSymptoms, kNumHerbs, kDim, kConnections);

  // Batch-size telemetry straight from the engine's obs counters: if the
  // mean batch stays small the sweep is pacing the drainers, not flooding
  // the admission queue.
  auto engine = (*manager)->Engine("bench-zipf");
  SMGCN_CHECK_OK(engine.status());
  obs::Counter* batches_counter = obs::Registry::Global().GetCounter(
      (*engine)->obs_prefix() + "batches");
  obs::Counter* batched_counter = obs::Registry::Global().GetCounter(
      (*engine)->obs_prefix() + "batched_queries");
  std::uint64_t last_batches = 0;
  std::uint64_t last_batched = 0;
  const auto mean_batch = [&]() -> double {
    const std::uint64_t batches = batches_counter->value();
    const std::uint64_t batched = batched_counter->value();
    const double mean =
        batches == last_batches
            ? 0.0
            : static_cast<double>(batched - last_batched) /
                  static_cast<double>(batches - last_batches);
    last_batches = batches;
    last_batched = batched;
    return mean;
  };

  std::vector<StepResult> results;
  results.push_back(
      RunClosedLoop((*server)->port(), trace, kCalibrationSeconds));
  const double closed_loop_qps = results[0].achieved_qps;
  std::printf("pipelined closed-loop rate: %.0f QPS (shed %.1f%% during "
              "calibration)\n",
              closed_loop_qps, results[0].shed_rate * 100.0);
  SMGCN_CHECK(closed_loop_qps > 0.0) << "calibration served nothing";

  // The closed-loop rate is a floor, not the capacity: on a shared host
  // the idle turnaround between a batch completing and the next window
  // arriving deflates it. Ramp the open-loop offered load until the
  // admission queue sheds — the OK rate under queue-full load is the
  // server's sustainable drain rate, i.e. its real capacity.
  double capacity = 0.0;
  double ramp_rate = std::max(200.0, closed_loop_qps);
  for (int probe = 0; probe < 12; ++probe) {
    StepResult step =
        RunOpenLoop(StrFormat("ramp_%.0f", ramp_rate), (*server)->port(),
                    trace, ramp_rate, 1.0, /*deadline_ms=*/0.0);
    results.push_back(step);
    std::printf("  ramp %6.0f QPS offered: ok %6.0f/s, shed %.1f%%\n",
                step.offered_qps, step.achieved_qps, step.shed_rate * 100.0);
    if (step.shed_rate > 0.02) {
      capacity = step.achieved_qps;
      break;
    }
    ramp_rate *= 1.5;
  }
  SMGCN_CHECK(capacity > 0.0)
      << "ramp never saturated the server; the host is faster than the "
         "sweep's ceiling";
  std::printf("saturation found: capacity %.0f QPS\n\n", capacity);

  std::vector<StepResult> sweep;
  for (const double mult : {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0}) {
    StepResult step =
        RunOpenLoop(StrFormat("open_loop_%.2fx", mult), (*server)->port(),
                    trace, mult * capacity, kStepSeconds, /*deadline_ms=*/0.0);
    std::printf("%-18s offered %6.0f  ok %6.0f/s  shed %5.1f%%  "
                "p50 %7.2f ms  p99 %7.2f ms  send-lag p99 %6.1f ms  "
                "mean batch %5.1f\n",
                step.step.c_str(), step.offered_qps, step.achieved_qps,
                step.shed_rate * 100.0, step.p50_ms, step.p99_ms,
                step.send_lag_p99_ms, mean_batch());
    results.push_back(step);
    sweep.push_back(step);
  }

  // Deadline demo: deepest overload again, now with a per-request budget.
  // Requests the engine cannot meet in time come back kDeadlineExceeded
  // (cheaply, swept before scoring) on top of admission-queue shedding.
  StepResult deadline_step =
      RunOpenLoop("open_loop_2.00x_deadline", (*server)->port(), trace,
                  2.0 * capacity, kStepSeconds, /*deadline_ms=*/20.0);
  std::printf("%-18s offered %6.0f  ok %6.0f/s  shed %5.1f%%  "
              "deadline_exceeded %llu\n",
              deadline_step.step.c_str(), deadline_step.offered_qps,
              deadline_step.achieved_qps, deadline_step.shed_rate * 100.0,
              static_cast<unsigned long long>(
                  deadline_step.deadline_exceeded));
  results.push_back(deadline_step);

  (*server)->Stop();
  (*manager)->Shutdown();

  CsvWriter csv({"step", "offered_qps", "achieved_qps", "ok", "shed",
                 "deadline_exceeded", "other", "transport_errors",
                 "shed_rate", "p50_ms", "p99_ms", "send_lag_p99_ms"});
  for (const StepResult& step : results) {
    SMGCN_CHECK_OK(csv.AddRow(
        {step.step, StrFormat("%.1f", step.offered_qps),
         StrFormat("%.1f", step.achieved_qps), std::to_string(step.ok),
         std::to_string(step.shed), std::to_string(step.deadline_exceeded),
         std::to_string(step.other), std::to_string(step.transport_errors),
         StrFormat("%.4f", step.shed_rate), StrFormat("%.3f", step.p50_ms),
         StrFormat("%.3f", step.p99_ms),
         StrFormat("%.3f", step.send_lag_p99_ms)}));
  }
  WriteResultsCsv("zipf_load", csv);

  // Shape checks over the sweep (sweep[0] = 0.25x ... sweep[6] = 2.0x).
  std::printf("\nShape checks (PR 9 acceptance):\n");
  bool ok = true;
  std::uint64_t transport_errors = 0;
  for (const StepResult& step : results) {
    transport_errors += step.transport_errors;
  }
  ok &= ShapeCheck("no transport errors at any step", 0.5,
                   static_cast<double>(transport_errors));
  ok &= ShapeCheck("well below saturation (0.25x) sheds under 1%", 0.01,
                   sweep[0].shed_rate);
  ok &= ShapeCheck("past saturation (2.0x) load is shed", sweep[6].shed_rate,
                   0.0);
  ok &= ShapeCheck("shedding grows with overload (2.0x >= 1.25x)",
                   sweep[6].shed_rate, sweep[4].shed_rate);
  ok &= ShapeCheck(
      "OK throughput at 2.0x stays above half the 0.75x level "
      "(no congestion collapse)",
      sweep[6].achieved_qps, 0.5 * sweep[2].achieved_qps);
  // The bounded queue caps queueing delay: accepted requests at the worst
  // overload stay within 2x the pre-saturation (0.75x) p99.
  ok &= ShapeCheck("p99 of accepted at 2.0x within 2x the 0.75x p99",
                   2.0 * sweep[2].p99_ms, sweep[6].p99_ms);
  ok &= ShapeCheck("deadline step returns deadline-exceeded responses",
                   static_cast<double>(deadline_step.deadline_exceeded), 0.0);
  return ok;
}

}  // namespace
}  // namespace bench
}  // namespace smgcn

int main() { return smgcn::bench::Run() ? 0 : 1; }
