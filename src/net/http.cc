#include "src/net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/audit/audit.h"
#include "src/serve/status.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace net {
namespace http {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Doubles in attribution JSON use %.17g so every f64 term round-trips
/// exactly — the bit-exact reconstruction must survive the JSON hop.
std::string JsonF64(double v) { return StrFormat("%.17g", v); }

std::string AttributionJson(const audit::QueryAttribution& attr) {
  std::string out = "{\"symptom_ids\":[";
  for (std::size_t i = 0; i < attr.symptom_ids.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", attr.symptom_ids[i]);
  }
  out += "],\"herbs\":[";
  for (std::size_t i = 0; i < attr.herbs.size(); ++i) {
    const audit::HerbAttribution& herb = attr.herbs[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"herb_id\":%zu,\"score\":%s,\"bipar\":%s,\"synergy\":%s,"
        "\"pool_bias\":%s,\"pool_residual\":%s,\"has_components\":%s,"
        "\"exact\":%s,\"per_symptom\":[",
        herb.herb_id, JsonF64(herb.score).c_str(),
        JsonF64(herb.bipar).c_str(), JsonF64(herb.synergy).c_str(),
        JsonF64(herb.pool_bias).c_str(), JsonF64(herb.pool_residual).c_str(),
        herb.has_components ? "true" : "false",
        herb.exact ? "true" : "false");
    for (std::size_t s = 0; s < herb.per_symptom.size(); ++s) {
      if (s > 0) out += ",";
      out += JsonF64(herb.per_symptom[s]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace

Result<Request> ParseRequest(const std::string& head) {
  if (head.size() > kMaxHeadBytes) {
    return Status::InvalidArgument(StrFormat(
        "request head of %zu bytes exceeds the cap of %zu", head.size(),
        kMaxHeadBytes));
  }
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) {
    return Status::InvalidArgument("request head has no CRLF-terminated line");
  }
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return Status::InvalidArgument(
        StrFormat("malformed request line '%s'", line.c_str()));
  }
  Request request;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string protocol = line.substr(sp2 + 1);
  if (protocol.rfind("HTTP/1.", 0) != 0) {
    return Status::InvalidArgument(
        StrFormat("unsupported protocol '%s'", protocol.c_str()));
  }
  if (target.empty() || target[0] != '/') {
    return Status::InvalidArgument(
        StrFormat("request target '%s' is not origin-form", target.c_str()));
  }
  // Split target into path + query parameters.
  const std::size_t qmark = target.find('?');
  request.path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    std::string qs = target.substr(qmark + 1);
    std::size_t start = 0;
    while (start <= qs.size()) {
      std::size_t amp = qs.find('&', start);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(start, amp - start);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          request.query[pair] = "";
        } else {
          request.query[pair.substr(0, eq)] = pair.substr(eq + 1);
        }
      }
      start = amp + 1;
    }
  }
  // Headers are retained (lowercased names) so endpoints can read e.g.
  // X-Request-Id; Connection is interpreted here.
  std::size_t cursor = line_end + 2;
  while (cursor < head.size()) {
    std::size_t next = head.find("\r\n", cursor);
    if (next == std::string::npos) next = head.size();
    const std::string header = head.substr(cursor, next - cursor);
    cursor = next + 2;
    if (header.empty()) break;
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = ToLower(header.substr(0, colon));
    std::string value = header.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(value.begin());
    if (name == "connection" && ToLower(value) == "close") {
      request.keep_alive = false;
    }
    request.headers[name] = std::move(value);
  }
  return request;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 429:
      return "Too Many Requests";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
  }
  return "Unknown";
}

std::string FormatResponse(int status, const std::string& content_type,
                           const std::string& body, bool keep_alive) {
  return FormatResponse(status, content_type, body, keep_alive, {});
}

std::string FormatResponse(
    int status, const std::string& content_type, const std::string& body,
    bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", status,
                              ReasonPhrase(status));
  out += "Content-Type: " + content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& header : extra_headers) {
    out += header.first + ": " + header.second + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

Result<std::vector<int>> ParseIntList(const std::string& csv) {
  if (csv.empty()) {
    return Status::InvalidArgument("expected a comma-separated id list");
  }
  std::vector<int> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string part = csv.substr(start, comma - start);
    if (part.empty()) {
      return Status::InvalidArgument(
          StrFormat("empty element in id list '%s'", csv.c_str()));
    }
    char* end = nullptr;
    const long long value = std::strtoll(part.c_str(), &end, 10);
    if (end == part.c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("'%s' is not an integer", part.c_str()));
    }
    // strtoll saturates past its own range, so this also rejects those.
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          StrFormat("'%s' is out of the int range", part.c_str()));
    }
    out.push_back(static_cast<int>(value));
    start = comma + 1;
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ParseRecommendRequest(const Request& request, serve::Request* serving,
                           serve::Response* error) {
  error->status = serve::StatusCode::kInvalidArgument;
  const auto symptoms = request.query.find("symptoms");
  if (symptoms == request.query.end()) {
    error->message = "missing required query parameter 'symptoms'";
    return false;
  }
  auto ids = ParseIntList(symptoms->second);
  if (!ids.ok()) {
    error->message = ids.status().message();
    return false;
  }
  serving->symptoms = *std::move(ids);
  serving->top_k = 10;
  const auto param = [&request](const char* name) -> const std::string* {
    const auto it = request.query.find(name);
    return it == request.query.end() ? nullptr : &it->second;
  };
  if (const std::string* k = param("k")) {
    serving->top_k =
        static_cast<std::size_t>(std::strtoul(k->c_str(), nullptr, 10));
  }
  if (const std::string* d = param("deadline_ms")) {
    serving->deadline_ms = std::strtod(d->c_str(), nullptr);
  }
  if (const std::string* m = param("model")) serving->model = *m;
  if (const std::string* v = param("version")) serving->version = *v;
  if (const std::string* a = param("attribution")) {
    serving->attribution = *a == "1" || *a == "true";
  }
  // Correlation id: the query parameter wins over the X-Request-Id header;
  // both are optional (the engine mints one when absent).
  if (const std::string* r = param("request_id")) {
    serving->request_id = *r;
  } else if (const auto h = request.headers.find("x-request-id");
             h != request.headers.end()) {
    serving->request_id = h->second;
  }
  if (serving->top_k == 0) {
    error->message = "k must be >= 1";
    return false;
  }
  return true;
}

std::string FormatRecommendResponse(const serve::Response& response,
                                    bool keep_alive) {
  std::string ids_json;
  for (std::size_t i = 0; i < response.herb_ids.size(); ++i) {
    if (i > 0) ids_json += ",";
    ids_json += StrFormat("%zu", response.herb_ids[i]);
  }
  std::string attribution_json;
  if (response.attribution.has_value()) {
    attribution_json =
        ",\"attribution\":" + AttributionJson(*response.attribution);
  }
  const std::string body = StrFormat(
      "{\"status\":\"%s\",\"model\":\"%s\",\"version\":\"%s\","
      "\"request_id\":\"%s\",\"herb_ids\":[%s],\"message\":\"%s\"%s}\n",
      serve::StatusCodeName(response.status),
      JsonEscape(response.model).c_str(),
      JsonEscape(response.version).c_str(),
      JsonEscape(response.request_id).c_str(), ids_json.c_str(),
      JsonEscape(response.message).c_str(), attribution_json.c_str());
  std::vector<std::pair<std::string, std::string>> extra;
  if (!response.request_id.empty()) {
    extra.emplace_back("X-Request-Id", response.request_id);
  }
  return FormatResponse(serve::HttpStatusFor(response.status),
                              "application/json", body, keep_alive, extra);
}


std::string ModelsJson(const std::vector<serve::ModelInfo>& models) {
  std::string body = "{\"models\":[";
  bool first_model = true;
  for (const auto& model : models) {
    if (!first_model) body += ",";
    first_model = false;
    body += StrFormat("{\"name\":\"%s\",\"active_version\":\"%s\","
                      "\"versions\":[",
                      JsonEscape(model.name).c_str(),
                      JsonEscape(model.active_version).c_str());
    for (std::size_t i = 0; i < model.versions.size(); ++i) {
      const auto& v = model.versions[i];
      if (i > 0) body += ",";
      body += StrFormat(
          "{\"version\":\"%s\",\"active\":%s,\"num_symptoms\":%zu,"
          "\"num_herbs\":%zu,\"dim\":%zu}",
          JsonEscape(v.version).c_str(), v.active ? "true" : "false",
          v.num_symptoms, v.num_herbs, v.dim);
    }
    body += "]}";
  }
  body += "]}\n";
  return body;
}

std::string SlowLogText(const serve::ModelManager& manager) {
  std::string body;
  for (const auto& model : manager.ListModels()) {
    auto engine = manager.Engine(model.name);
    if (!engine.ok()) continue;
    for (const auto& record : (*engine)->slow_query_log().Snapshot()) {
      body += model.name + " " + record.ToString() + "\n";
    }
  }
  return body;
}

}  // namespace http
}  // namespace net
}  // namespace smgcn
