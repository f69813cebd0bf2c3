// The unified serving request/response surface.
//
// One pair of structs describes a serving call everywhere: the in-process
// API (ServingEngine::Handle / HandleBatch / SubmitRequest, ModelManager
// routing) and the wire protocol (src/net) share them verbatim, so a field
// added here is one field, not four parallel signatures.
//
// Modes:
//   * top_k >= 1  — ranked mode: Response.herb_ids holds the top-k herb
//     ids (k clamped to the herb catalog). The top-k cache applies.
//   * top_k == 0  — dense mode: Response.scores holds one score per herb
//     in catalog order (what evaluators consume).
//     Synchronous paths only; the micro-batcher is ranked-only.
#ifndef SMGCN_SERVE_REQUEST_H_
#define SMGCN_SERVE_REQUEST_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/serve/status.h"

namespace smgcn {
namespace serve {

/// One serving request. Value-semantic and self-contained: the same struct
/// is filled by in-process callers, the HTTP query-parameter parser and the
/// binary frame decoder.
struct Request {
  /// The symptom set to score. Order and duplicates are irrelevant
  /// (canonicalized on admission); every id must be in the model's symptom
  /// vocabulary.
  std::vector<int> symptoms;

  /// Ranked mode when >= 1 (clamped to the herb catalog), dense-score mode
  /// when 0 (synchronous paths only).
  std::size_t top_k = 10;

  /// Latency budget in milliseconds from admission; 0 (or any value that
  /// is not positive, or too large for the steady clock, e.g. inf) means no
  /// deadline. A request whose budget expires before it is scored is
  /// answered with kDeadlineExceeded instead of being scored late, and one
  /// that runs out during scoring carries no payload.
  double deadline_ms = 0.0;

  /// Model to route to (ModelManager). Empty means "the only hosted
  /// model"; with several models hosted an empty name is rejected.
  /// At the engine level a non-empty name must match the engine's model.
  std::string model;

  /// Version pin: when non-empty the request is answered only if this
  /// exact version is active (kUnavailable otherwise). The consistency
  /// guard for callers that must not silently cross a hot swap.
  std::string version;

  /// Client-chosen correlation id (<= 64 ASCII chars on the wire). Empty
  /// means the engine mints one at admission; either way the id is echoed
  /// in Response.request_id and stamped on the slow-query log and trace so
  /// one request can be followed across every audit surface.
  std::string request_id;

  /// Ranked mode only: also return a per-herb score attribution
  /// (src/audit/audit.h) for the top-k herbs. Costs one extra single-query
  /// scoring pass plus the decomposition dots, so it is opt-in per request.
  bool attribution = false;
};

/// The answer to a Request. `status` is the closed serving vocabulary
/// (serve::StatusCode, shared with the wire protocol); `message` carries
/// human-readable detail on errors and is never the machine contract.
struct Response {
  StatusCode status = StatusCode::kOk;
  std::string message;

  /// Ranked mode: top-k herb ids, best first. Empty on errors.
  std::vector<std::size_t> herb_ids;
  /// Dense mode: one score per herb in catalog order. Empty on errors and
  /// in ranked mode.
  std::vector<double> scores;

  /// Which model/version answered (set whenever routing succeeded, so even
  /// error responses are attributable to one publish).
  std::string model;
  std::string version;

  /// The request's correlation id: Request.request_id when the client
  /// supplied one, else the engine-minted id. Set on every response that
  /// reached an engine, including errors.
  std::string request_id;

  /// Per-herb score attribution for Response.herb_ids (same order), present
  /// only when Request.attribution was set and the request succeeded in
  /// ranked mode.
  std::optional<audit::QueryAttribution> attribution;

  bool ok() const { return status == StatusCode::kOk; }
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_SERVE_REQUEST_H_
