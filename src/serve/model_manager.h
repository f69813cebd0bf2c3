// ModelManager: versioned, zero-downtime model hosting for one process.
//
// A serving process is no longer married to the single checkpoint it was
// started with: the manager hosts any number of *named models*, each with a
// bounded history of *published versions*, and routes queries to the active
// version of the requested model. Publishing is an RCU-style pointer swap
// (see ServingEngine::PublishSnapshot) — in-flight queries finish on the
// snapshot they grabbed, new queries route to the new version, and the
// swap itself never pauses traffic (bench_hot_swap measures the p99 delta).
//
// Lifecycle verbs:
//   * Publish / PublishArtifact — install a new version as active. The
//     artifact path is the production one: mmap + checksum-validate a
//     binary artifact (src/core/artifact.h) and publish it under the model
//     name/version recorded inside the file.
//   * Rollback — drop the active version and reactivate its predecessor.
//     Retained snapshots keep their cache salt, so a rollback's surviving
//     top-k cache entries are warm immediately.
//   * Retire — drop a non-active version from the history.
//
// The last `retain_versions` snapshots per model are pinned for instant
// rollback; anything older is released (its memory is freed once in-flight
// queries drain).
//
// Each model gets its own ServingEngine (created on first publish, kept
// across swaps, so its cache, micro-batcher and stats survive deploys);
// one model's publish never touches another model's cache.
//
// Observability (process-wide scope `serve.modelmanager.`):
//   serve.modelmanager.models                 gauge    hosted model names
//   serve.modelmanager.active_versions        gauge    retained versions,
//                                                      summed over models
//   serve.modelmanager.publishes              counter
//   serve.modelmanager.rollbacks              counter
//   serve.modelmanager.retires                counter
//   serve.modelmanager.artifact_open.seconds  histogram  mmap+validate time
// plus a `serve.publish` trace instant per swap.
#ifndef SMGCN_SERVE_MODEL_MANAGER_H_
#define SMGCN_SERVE_MODEL_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/artifact.h"
#include "src/core/checkpoint.h"
#include "src/serve/engine.h"
#include "src/util/status.h"

namespace smgcn {
namespace serve {

struct ModelManagerOptions {
  /// Versions pinned per model for rollback (at least 1 — the active one).
  std::size_t retain_versions = 3;
  /// Applied to every hosted engine. Versions and scoring precision come
  /// from each published snapshot: Publish serves f64, PublishArtifact the
  /// artifact's stored precision.
  ServingEngineOptions engine_options;
};

/// One retained version of one model, as reported by ListModels.
struct ModelVersionInfo {
  std::string version;
  bool active = false;
  std::size_t num_symptoms = 0;
  std::size_t num_herbs = 0;
  std::size_t dim = 0;
};

struct ModelInfo {
  std::string name;
  std::string active_version;
  /// Publish order, oldest first; the last entry is the active version.
  std::vector<ModelVersionInfo> versions;
};

/// What a publish installed; `model` + `version` identify it for Rollback /
/// Retire and in logs.
struct PublishReceipt {
  std::string model;
  std::string version;
};

/// Hosts named models × versions behind atomic snapshot swaps. Thread-safe:
/// publishes, rollbacks and queries may arrive concurrently from any
/// thread.
class ModelManager {
 public:
  static Result<std::unique_ptr<ModelManager>> Create(
      ModelManagerOptions options = {});

  ~ModelManager();
  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  /// Opens (mmap + validate) the artifact at `path` and publishes it under
  /// the model name and version stored in the file. Fails without touching
  /// the serving state when the artifact is damaged or the version is
  /// already retained for that model.
  Result<PublishReceipt> PublishArtifact(const std::string& path);

  /// Publishes an in-memory checkpoint (named by checkpoint.model_name)
  /// under an explicit semantic version.
  Result<PublishReceipt> Publish(core::InferenceCheckpoint checkpoint,
                                 const std::string& version);

  /// Drops the active version of `model` and reactivates the previous one.
  /// FailedPrecondition when there is no older retained version.
  Status Rollback(const std::string& model);

  /// Drops a retained, non-active version (freeing it once in-flight
  /// queries drain). Retiring the active version is a FailedPrecondition —
  /// Rollback or Publish past it first.
  Status Retire(const std::string& model, const std::string& version);

  /// The engine serving `model` (NotFound before its first publish). The
  /// pointer stays valid for the manager's lifetime — engines persist
  /// across swaps.
  Result<ServingEngine*> Engine(const std::string& model) const;

  Result<std::string> ActiveVersion(const std::string& model) const;

  /// Hosted models with their retained versions, sorted by name.
  std::vector<ModelInfo> ListModels() const;

  /// Routes `request` to the engine hosting request.model and answers it
  /// synchronously. An empty model name resolves to the sole hosted model
  /// (kInvalidArgument when several are hosted, kUnavailable when none
  /// are). Routing failures land in the Response, never a C++ error —
  /// this is the entry point the network front-end calls.
  Response Handle(const Request& request) const;

  /// Async counterpart of Handle: routes to the model's engine and
  /// enqueues on its micro-batcher (ranked mode only; see
  /// ServingEngine::SubmitRequest for shedding/deadline semantics).
  std::future<Response> SubmitRequest(Request request) const;

  /// Callback counterpart (see ServingEngine's callback SubmitRequest):
  /// `done` fires exactly once, synchronously for routing failures.
  void SubmitRequest(Request request,
                     std::function<void(Response)> done) const;

  /// Drains and shuts down every hosted engine. Idempotent; implicit in
  /// the destructor.
  void Shutdown();

  const ModelManagerOptions& options() const { return options_; }

 private:
  explicit ModelManager(ModelManagerOptions options);

  struct Entry {
    std::unique_ptr<ServingEngine> engine;
    /// Publish order, oldest first; back() is active. Bounded to
    /// retain_versions.
    std::deque<std::shared_ptr<const ModelSnapshot>> history;
  };

  /// Installs `snapshot` as the active version of `model` (creating the
  /// engine on first publish). Caller must NOT hold mu_.
  Result<PublishReceipt> Install(const std::string& model,
                                 std::shared_ptr<const ModelSnapshot> snapshot);

  /// Request routing: a named model resolves like Engine(); an empty name
  /// resolves to the sole hosted model (InvalidArgument when ambiguous,
  /// Unavailable when nothing is published yet).
  Result<ServingEngine*> Route(const std::string& model) const;

  /// Refreshes the models / active_versions gauges. Caller holds mu_.
  void UpdateGauges() const;

  ModelManagerOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> models_;

  obs::Counter* publishes_;       // serve.modelmanager.publishes
  obs::Counter* rollbacks_;       // serve.modelmanager.rollbacks
  obs::Counter* retires_;         // serve.modelmanager.retires
  obs::Gauge* models_gauge_;      // serve.modelmanager.models
  obs::Gauge* versions_gauge_;    // serve.modelmanager.active_versions
  obs::Histogram* open_latency_;  // serve.modelmanager.artifact_open.seconds
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_MODEL_MANAGER_H_
