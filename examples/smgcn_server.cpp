// The serving stack as a standalone server process: publish one or more
// model artifacts into a ModelManager and expose it over TCP (binary wire
// protocol + HTTP ops plane) via net::Server. This is the binary the CI
// smoke job and the load-generation examples talk to.
//
//   ./build/examples/smgcn_server                          # demo model
//   ./build/examples/smgcn_server --artifact m.smga --port 7070
//   curl localhost:7070/healthz
//   curl 'localhost:7070/v1/recommend?symptoms=1,4,9&k=10'
//   curl localhost:7070/metrics
//
// With no --artifact a deterministic synthetic demo model ("demo", 24
// symptoms x 40 herbs) is published so the server is self-contained.
// --duration-s N exits after N seconds (for smoke tests); the default 0
// serves until SIGINT/SIGTERM, then drains gracefully.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/net/server.h"
#include "src/serve/model_manager.h"
#include "src/tensor/matrix.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

// The same deterministic synthetic model the serving tests use: no training
// required, so the server starts instantly.
smgcn::core::InferenceCheckpoint DemoCheckpoint() {
  using smgcn::tensor::Matrix;
  smgcn::Rng rng(907);
  smgcn::core::InferenceCheckpoint ckpt;
  ckpt.model_name = "demo";
  ckpt.symptom_embeddings = Matrix::RandomNormal(24, 8, 0.0, 1.0, &rng);
  ckpt.herb_embeddings = Matrix::RandomNormal(40, 8, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = true;
  ckpt.si_weight = Matrix::RandomNormal(8, 8, 0.0, 0.5, &rng);
  ckpt.si_bias = Matrix::RandomNormal(1, 8, 0.0, 0.5, &rng);
  // Pre-fusion Bipar-GCN herb table so /v1/recommend?attribution=1 returns
  // real bipar/synergy components on the demo model.
  ckpt.has_herb_bipar = true;
  ckpt.herb_bipar = Matrix::RandomNormal(40, 8, 0.0, 0.5, &rng);
  return ckpt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smgcn;

  std::vector<std::string> artifacts;
  std::uint16_t port = 7070;
  int duration_s = 0;
  std::size_t max_queue_depth = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      SMGCN_CHECK(i + 1 < argc) << arg << " needs a value";
      return argv[++i];
    };
    if (arg == "--artifact") {
      artifacts.emplace_back(next());
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--duration-s") {
      duration_s = std::atoi(next());
    } else if (arg == "--max-queue-depth") {
      max_queue_depth = static_cast<std::size_t>(std::atol(next()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--artifact path]... [--port N] "
                   "[--duration-s N] [--max-queue-depth N]\n",
                   argv[0]);
      return 2;
    }
  }

  serve::ModelManagerOptions manager_options;
  manager_options.engine_options.max_batch_size = 64;
  manager_options.engine_options.cache_capacity = 4096;
  // Bounded admission: past this, requests answer kShedding immediately
  // instead of queueing without limit.
  manager_options.engine_options.max_queue_depth = max_queue_depth;
  auto manager = serve::ModelManager::Create(manager_options);
  SMGCN_CHECK_OK(manager.status());

  if (artifacts.empty()) {
    auto receipt = (*manager)->Publish(DemoCheckpoint(), "v1");
    SMGCN_CHECK_OK(receipt.status());
    std::printf("published demo model '%s' version %s\n",
                receipt->model.c_str(), receipt->version.c_str());
  }
  for (const std::string& path : artifacts) {
    auto receipt = (*manager)->PublishArtifact(path);
    SMGCN_CHECK_OK(receipt.status());
    std::printf("published %s -> model '%s' version %s\n", path.c_str(),
                receipt->model.c_str(), receipt->version.c_str());
  }

  net::ServerOptions server_options;
  server_options.port = port;
  auto server = net::Server::Start(manager->get(), server_options);
  SMGCN_CHECK_OK(server.status());
  std::printf("serving on %s:%u (binary wire protocol + HTTP)\n",
              (*server)->host().c_str(), (*server)->port());
  std::printf("  curl %s:%u/healthz\n", (*server)->host().c_str(),
              (*server)->port());
  std::printf("  curl '%s:%u/v1/recommend?symptoms=1,4,9&k=10'\n",
              (*server)->host().c_str(), (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  int elapsed_ms = 0;
  while (!g_stop && (duration_s == 0 || elapsed_ms < duration_s * 1000)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    elapsed_ms += 50;
  }

  std::printf("draining...\n");
  (*server)->Stop();       // answer everything admitted, then close
  (*manager)->Shutdown();  // resolve everything still queued
  std::printf("stopped cleanly\n");
  return 0;
}
