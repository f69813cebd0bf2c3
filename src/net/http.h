// Minimal HTTP/1.1: exactly enough to serve GET endpoints (/healthz,
// /metrics, /v1/recommend, ...) to curl, Prometheus scrapers and load
// balancer health checks — no external dependency, no chunked encoding, no
// request bodies. The binary protocol (wire.h) is the data plane; HTTP is
// the human/ops plane. ParseRecommendRequest / FormatRecommendResponse map
// GET /v1/recommend onto serve::Request / serve::Response and back;
// ModelsJson and SlowLogText render GET /v1/models and GET /slowlog.
#ifndef SMGCN_NET_HTTP_H_
#define SMGCN_NET_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/serve/model_manager.h"
#include "src/serve/request.h"
#include "src/util/status.h"

namespace smgcn {
namespace net {
namespace http {

/// Longest accepted request head (request line + headers). Anything
/// larger is answered 400 and the connection closed.
inline constexpr std::size_t kMaxHeadBytes = 8192;

struct Request {
  std::string method;  // "GET"
  std::string path;    // "/v1/recommend" (query string stripped)
  /// Decoded query parameters, last-wins on duplicates. Values are taken
  /// verbatim (no percent-decoding) except '+' meaning space is NOT
  /// applied — ids and numbers, the only values used, need neither.
  std::map<std::string, std::string> query;
  /// Request headers, names lowercased, values with leading spaces
  /// stripped; last-wins on duplicates.
  std::map<std::string, std::string> headers;
  bool keep_alive = true;  // HTTP/1.1 default, "Connection: close" honoured
};

/// Parses a request head: everything up to and including the blank line.
/// InvalidArgument on malformed request lines or oversized heads.
Result<Request> ParseRequest(const std::string& head);

/// Renders a full response (status line + Content-Length + body).
/// `keep_alive` emits the matching Connection header.
std::string FormatResponse(int status, const std::string& content_type,
                           const std::string& body, bool keep_alive);

/// As above, with extra response headers appended verbatim (each pair
/// rendered as "name: value"). Used to echo X-Request-Id.
std::string FormatResponse(
    int status, const std::string& content_type, const std::string& body,
    bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers);

/// The reason phrase for the status codes this server emits.
const char* ReasonPhrase(int status);

/// Parses "1,4,9" into ints; InvalidArgument on empty or non-numeric parts
/// and on parts outside the int range (naming the offending part).
Result<std::vector<int>> ParseIntList(const std::string& csv);

/// Reads GET /v1/recommend's query — symptoms=1,4,9 (required), k
/// (default 10), deadline_ms, model, version, attribution=1|true,
/// request_id (else the X-Request-Id header) — into `serving`. False, with
/// `error` filled, when the request cannot reach an engine (missing or
/// malformed symptoms, k == 0).
bool ParseRecommendRequest(const Request& request, serve::Request* serving,
                           serve::Response* error);

/// The full /v1/recommend response: `response` as JSON (attribution
/// doubles at %.17g, so the bit-exact reconstruction survives the hop), an
/// HTTP status mirroring the serving status (serve::HttpStatusFor) and the
/// correlation id echoed in X-Request-Id.
std::string FormatRecommendResponse(const serve::Response& response,
                                    bool keep_alive);

/// The GET /v1/models body: every hosted model with its retained versions.
std::string ModelsJson(const std::vector<serve::ModelInfo>& models);

/// The GET /slowlog body: every hosted model's recent slow queries, one
/// line each, prefixed with the model name.
std::string SlowLogText(const serve::ModelManager& manager);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s);

}  // namespace http
}  // namespace net
}  // namespace smgcn

#endif  // SMGCN_NET_HTTP_H_
