// Closed-loop load client for smgcn_server: N connections issue skewed
// random symptom queries over the binary wire protocol for a fixed
// duration, then print a per-status breakdown with latency percentiles
// (p50/p95/p99) and throughput. The CI smoke job runs this against a
// freshly started server and asserts a nonzero OK count (exit status 1
// when nothing succeeded). With --p99-budget-ms the client also enforces
// a latency SLO: exit status 3 when the OK p99 exceeds the budget, so a
// perf regression fails the pipeline even when every request succeeded.
//
//   ./build/examples/smgcn_server --port 7070 &
//   ./build/examples/load_client --port 7070 --connections 4 --duration-s 5 --p99-budget-ms 50
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/client.h"
#include "src/serve/request.h"
#include "src/serve/status.h"
#include "src/util/logging.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  using namespace smgcn;

  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  int connections = 2;
  int duration_s = 5;
  int max_symptom_id = 23;  // matches smgcn_server's demo model
  std::size_t top_k = 10;
  double deadline_ms = 0.0;
  double p99_budget_ms = 0.0;  // 0 = no SLO enforcement
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      SMGCN_CHECK(i + 1 < argc) << arg << " needs a value";
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--connections") {
      connections = std::atoi(next());
    } else if (arg == "--duration-s") {
      duration_s = std::atoi(next());
    } else if (arg == "--max-symptom-id") {
      max_symptom_id = std::atoi(next());
    } else if (arg == "--k") {
      top_k = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atof(next());
    } else if (arg == "--p99-budget-ms") {
      p99_budget_ms = std::atof(next());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host H] [--port N] [--connections N] "
                   "[--duration-s N] [--max-symptom-id N] [--k N] "
                   "[--deadline-ms D] [--p99-budget-ms D]\n",
                   argv[0]);
      return 2;
    }
  }

  std::atomic<std::uint64_t> counts[serve::kMaxWireStatusByte + 1] = {};
  std::atomic<std::uint64_t> transport_errors{0};
  // Per-status latency samples, merged from per-worker local buffers after
  // the join so the hot loop stays lock-free.
  std::vector<double> latencies_ms[serve::kMaxWireStatusByte + 1];
  std::mutex latencies_mu;
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::seconds(duration_s);

  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(1000 + c);
      net::ClientOptions options;
      options.host = host;
      options.port = port;
      std::vector<std::pair<std::uint8_t, double>> local;
      while (std::chrono::steady_clock::now() < stop_at) {
        auto client = net::Client::Connect(options);
        if (!client.ok()) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          continue;
        }
        while (std::chrono::steady_clock::now() < stop_at) {
          serve::Request request;
          // Skewed traffic: most queries hit a small hot symptom set.
          const int span =
              rng.Bernoulli(0.7) ? max_symptom_id / 4 : max_symptom_id;
          const int n = 2 + static_cast<int>(rng.UniformInt(0, 2));
          for (int s = 0; s < n; ++s) {
            request.symptoms.push_back(
                static_cast<int>(rng.UniformInt(0, span)));
          }
          request.top_k = top_k;
          request.deadline_ms = deadline_ms;
          const auto sent_at = std::chrono::steady_clock::now();
          auto response = (*client)->Call(request);
          if (!response.ok()) {
            transport_errors.fetch_add(1, std::memory_order_relaxed);
            break;  // reconnect
          }
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - sent_at)
                                .count();
          const std::uint8_t status = serve::ToWireByte(response->status);
          counts[status].fetch_add(1, std::memory_order_relaxed);
          local.emplace_back(status, ms);
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      for (const auto& [status, ms] : local) {
        latencies_ms[status].push_back(ms);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  std::uint64_t total = 0;
  for (std::uint8_t b = 0; b <= serve::kMaxWireStatusByte; ++b) {
    total += counts[b].load();
  }
  std::printf("%llu responses in %ds (%.0f QPS over %d connections)\n",
              static_cast<unsigned long long>(total), duration_s,
              static_cast<double>(total) / duration_s, connections);
  const auto percentile = [](std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  double ok_p99 = 0.0;
  for (std::uint8_t b = 0; b <= serve::kMaxWireStatusByte; ++b) {
    std::vector<double>& samples = latencies_ms[b];
    std::sort(samples.begin(), samples.end());
    const double p99 = percentile(samples, 0.99);
    if (b == serve::ToWireByte(serve::StatusCode::kOk)) ok_p99 = p99;
    if (samples.empty()) {
      std::printf("  %-18s %llu\n",
                  serve::StatusCodeName(static_cast<serve::StatusCode>(b)),
                  static_cast<unsigned long long>(counts[b].load()));
    } else {
      std::printf("  %-18s %llu  p50=%.3fms p95=%.3fms p99=%.3fms\n",
                  serve::StatusCodeName(static_cast<serve::StatusCode>(b)),
                  static_cast<unsigned long long>(counts[b].load()),
                  percentile(samples, 0.50), percentile(samples, 0.95), p99);
    }
  }
  std::printf("  %-18s %llu\n", "transport errors",
              static_cast<unsigned long long>(transport_errors.load()));

  const std::uint64_t ok = counts[serve::ToWireByte(serve::StatusCode::kOk)]
                               .load();
  if (ok == 0) return 1;
  if (p99_budget_ms > 0.0 && ok_p99 > p99_budget_ms) {
    std::printf("SLO VIOLATION: OK p99 %.3fms exceeds budget %.3fms\n",
                ok_p99, p99_budget_ms);
    return 3;
  }
  return 0;
}
