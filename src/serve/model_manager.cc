#include "src/serve/model_manager.h"

#include <algorithm>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace serve {

Result<std::unique_ptr<ModelManager>> ModelManager::Create(
    ModelManagerOptions options) {
  if (options.retain_versions == 0) {
    return Status::InvalidArgument("retain_versions must be at least 1");
  }
  // Engine options are validated on first publish (engine creation); catch
  // the statically checkable ones here so Create fails fast.
  if (options.engine_options.max_batch_size == 0) {
    return Status::InvalidArgument("engine max_batch_size must be positive");
  }
  return std::unique_ptr<ModelManager>(new ModelManager(std::move(options)));
}

ModelManager::ModelManager(ModelManagerOptions options)
    : options_(std::move(options)),
      publishes_(
          obs::Registry::Global().GetCounter("serve.modelmanager.publishes")),
      rollbacks_(
          obs::Registry::Global().GetCounter("serve.modelmanager.rollbacks")),
      retires_(
          obs::Registry::Global().GetCounter("serve.modelmanager.retires")),
      models_gauge_(
          obs::Registry::Global().GetGauge("serve.modelmanager.models")),
      versions_gauge_(obs::Registry::Global().GetGauge(
          "serve.modelmanager.active_versions")),
      open_latency_(obs::Registry::Global().GetHistogram(
          "serve.modelmanager.artifact_open.seconds")) {}

ModelManager::~ModelManager() { Shutdown(); }

void ModelManager::UpdateGauges() const {
  std::size_t versions = 0;
  for (const auto& [name, entry] : models_) versions += entry.history.size();
  models_gauge_->Set(static_cast<double>(models_.size()));
  versions_gauge_->Set(static_cast<double>(versions));
}

Result<PublishReceipt> ModelManager::Install(
    const std::string& model, std::shared_ptr<const ModelSnapshot> snapshot) {
  const std::string version = snapshot->version;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = models_[model];
  for (const auto& retained : entry.history) {
    if (retained->version == version) {
      // Roll the empty entry back out so a failed first publish leaves no
      // engineless model behind.
      if (entry.engine == nullptr) models_.erase(model);
      return Status::AlreadyExists(StrFormat(
          "model '%s' already retains version '%s'; pick a new version id",
          model.c_str(), version.c_str()));
    }
  }
  if (entry.engine == nullptr) {
    auto engine =
        ServingEngine::CreateFromSnapshot(snapshot, options_.engine_options);
    if (!engine.ok()) {
      models_.erase(model);
      return engine.status();
    }
    entry.engine = std::move(engine).value();
  } else {
    RETURN_IF_ERROR(entry.engine->PublishSnapshot(snapshot));
  }
  entry.history.push_back(std::move(snapshot));
  while (entry.history.size() > options_.retain_versions) {
    entry.history.pop_front();
  }
  publishes_->Increment();
  UpdateGauges();
  return PublishReceipt{model, version};
}

Result<PublishReceipt> ModelManager::PublishArtifact(const std::string& path) {
  Stopwatch open_clock;
  ASSIGN_OR_RETURN(const core::MappedArtifact artifact,
                   core::MappedArtifact::Open(path));
  // Serve at the artifact's storage precision: f64/f32 round-trip through
  // the checkpoint exactly, and an int8 artifact's quantized payload is
  // copied into the store verbatim — the integers scored are the file's.
  ASSIGN_OR_RETURN(
      std::shared_ptr<const ModelSnapshot> snapshot,
      MakeModelSnapshotFromArtifact(artifact, artifact.model_version()));
  open_latency_->Record(open_clock.ElapsedSeconds());
  return Install(artifact.model_name(), std::move(snapshot));
}

Result<PublishReceipt> ModelManager::Publish(
    core::InferenceCheckpoint checkpoint, const std::string& version) {
  std::string model =
      checkpoint.model_name.empty() ? "unnamed" : checkpoint.model_name;
  ASSIGN_OR_RETURN(std::shared_ptr<const ModelSnapshot> snapshot,
                   MakeModelSnapshot(std::move(checkpoint), version));
  return Install(model, std::move(snapshot));
}

Status ModelManager::Rollback(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end()) {
    return Status::NotFound("no model named '" + model + "'");
  }
  Entry& entry = it->second;
  if (entry.history.size() < 2) {
    return Status::FailedPrecondition(StrFormat(
        "model '%s' has no older retained version to roll back to",
        model.c_str()));
  }
  entry.history.pop_back();  // drop the rolled-back-from version
  // Reusing the retained snapshot object keeps its cache salt: top-k
  // entries computed when it was last active are warm again immediately.
  RETURN_IF_ERROR(entry.engine->PublishSnapshot(entry.history.back()));
  rollbacks_->Increment();
  obs::trace::Instant("serve.rollback");
  UpdateGauges();
  return Status::OK();
}

Status ModelManager::Retire(const std::string& model,
                            const std::string& version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end()) {
    return Status::NotFound("no model named '" + model + "'");
  }
  Entry& entry = it->second;
  for (auto v = entry.history.begin(); v != entry.history.end(); ++v) {
    if ((*v)->version != version) continue;
    if (v + 1 == entry.history.end()) {
      return Status::FailedPrecondition(StrFormat(
          "version '%s' of model '%s' is active; Rollback or Publish past "
          "it before retiring",
          version.c_str(), model.c_str()));
    }
    entry.history.erase(v);
    retires_->Increment();
    UpdateGauges();
    return Status::OK();
  }
  return Status::NotFound(StrFormat(
      "model '%s' retains no version '%s'", model.c_str(), version.c_str()));
}

Result<ServingEngine*> ModelManager::Engine(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end() || it->second.engine == nullptr) {
    return Status::NotFound("no model named '" + model + "'");
  }
  return it->second.engine.get();
}

Result<std::string> ModelManager::ActiveVersion(const std::string& model) const {
  ASSIGN_OR_RETURN(ServingEngine * engine, Engine(model));
  return engine->active_version();
}

std::vector<ModelInfo> ModelManager::ListModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) {  // std::map: sorted by name
    ModelInfo info;
    info.name = name;
    for (const auto& snapshot : entry.history) {
      ModelVersionInfo v;
      v.version = snapshot->version;
      v.active = snapshot == entry.history.back();
      v.num_symptoms = snapshot->store.num_symptoms();
      v.num_herbs = snapshot->store.num_herbs();
      v.dim = snapshot->store.dim();
      if (v.active) info.active_version = v.version;
      info.versions.push_back(std::move(v));
    }
    out.push_back(std::move(info));
  }
  return out;
}

Result<ServingEngine*> ModelManager::Route(const std::string& model) const {
  if (!model.empty()) return Engine(model);
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.empty()) {
    return Status::Unavailable("no models are published yet");
  }
  if (models_.size() > 1) {
    return Status::InvalidArgument(StrFormat(
        "request names no model but %zu are hosted; set Request::model",
        models_.size()));
  }
  return models_.begin()->second.engine.get();
}

namespace {

/// The Response for a request that could not be routed to an engine.
Response RoutingFailure(const Status& status) {
  Response resp;
  resp.status = FromInternalStatus(status);
  resp.message = status.message();
  return resp;
}

}  // namespace

Response ModelManager::Handle(const Request& request) const {
  auto engine = Route(request.model);
  if (!engine.ok()) return RoutingFailure(engine.status());
  return (*engine)->Handle(request);
}

std::future<Response> ModelManager::SubmitRequest(Request request) const {
  auto engine = Route(request.model);
  if (!engine.ok()) {
    std::promise<Response> promise;
    promise.set_value(RoutingFailure(engine.status()));
    return promise.get_future();
  }
  return (*engine)->SubmitRequest(std::move(request));
}

void ModelManager::SubmitRequest(Request request,
                                 std::function<void(Response)> done) const {
  auto engine = Route(request.model);
  if (!engine.ok()) return done(RoutingFailure(engine.status()));
  (*engine)->SubmitRequest(std::move(request), std::move(done));
}

void ModelManager::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : models_) {
    if (entry.engine != nullptr) entry.engine->Shutdown();
  }
}

}  // namespace serve
}  // namespace smgcn
