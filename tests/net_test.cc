// Tests for src/net: wire codec totality, HTTP parsing, and the server
// end-to-end — protocol sniffing, binary round trips bit-identical to
// in-process Handle, pipelining order, malformed-input behaviour,
// admission-control shedding over the wire, graceful drain, a
// TSan-targeted concurrent connect/publish/query hammer, and the event
// loop under split and coalesced frames, peer resets, clients that stop
// reading, pipelined HTTP and idle connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/checkpoint.h"
#include "src/net/client.h"
#include "src/net/http.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/obs/registry.h"
#include "src/serve/model_manager.h"
#include "src/serve/request.h"
#include "src/serve/status.h"
#include "src/tensor/matrix.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace smgcn {
namespace net {
namespace {

core::InferenceCheckpoint MakeCheckpoint(std::size_t num_symptoms = 24,
                                         std::size_t num_herbs = 40,
                                         std::size_t dim = 8) {
  Rng rng(907);
  core::InferenceCheckpoint ckpt;
  ckpt.model_name = "test-ckpt";
  ckpt.symptom_embeddings =
      tensor::Matrix::RandomNormal(num_symptoms, dim, 0.0, 1.0, &rng);
  ckpt.herb_embeddings =
      tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 1.0, &rng);
  ckpt.has_si_mlp = true;
  ckpt.si_weight = tensor::Matrix::RandomNormal(dim, dim, 0.0, 0.5, &rng);
  ckpt.si_bias = tensor::Matrix::RandomNormal(1, dim, 0.0, 0.5, &rng);
  // Pre-fusion Bipar-GCN herb table so attribution has real components.
  ckpt.has_herb_bipar = true;
  ckpt.herb_bipar =
      tensor::Matrix::RandomNormal(num_herbs, dim, 0.0, 0.5, &rng);
  return ckpt;
}

std::unique_ptr<serve::ModelManager> MakeManager(
    serve::ModelManagerOptions options = {}) {
  auto manager = serve::ModelManager::Create(options);
  SMGCN_CHECK(manager.ok());
  SMGCN_CHECK((*manager)->Publish(MakeCheckpoint(), "v1").ok());
  return std::move(*manager);
}

/// Polls `done` every millisecond for up to five seconds.
bool WaitFor(const std::function<bool()>& done) {
  for (int spin = 0; spin < 5000; ++spin) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --------------------------------------------------------------------------
// Wire codec
// --------------------------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  serve::Request request;
  request.symptoms = std::vector<int>{4, 1, 9, 1};
  request.top_k = 12;
  request.deadline_ms = 7.5;
  request.model = "test-ckpt";
  request.version = "v1";
  auto frame = wire::EncodeRequest(request);
  ASSERT_TRUE(frame.ok());
  // No v2 field used: the encoder must emit a v1 frame (old servers parse).
  EXPECT_EQ((*frame)[1], 1);
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(wire::DecodeHeader(frame->data(), wire::kRequestMagic,
                                 &payload_len, &version)
                  .ok());
  ASSERT_EQ(frame->size(), wire::kHeaderBytes + payload_len);
  auto decoded = wire::DecodeRequestPayload(frame->data() + wire::kHeaderBytes,
                                            payload_len, version);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->symptoms, request.symptoms);
  EXPECT_EQ(decoded->top_k, request.top_k);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, 7.5);  // micros resolution: exact
  EXPECT_EQ(decoded->model, "test-ckpt");
  EXPECT_EQ(decoded->version, "v1");
  EXPECT_TRUE(decoded->request_id.empty());
  EXPECT_FALSE(decoded->attribution);
}

TEST(WireTest, V2RequestRoundTrip) {
  serve::Request request;
  request.symptoms = std::vector<int>{3, 8};
  request.top_k = 5;
  request.request_id = "client-abc-001";
  request.attribution = true;
  auto frame = wire::EncodeRequest(request);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[1], 2);
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(wire::DecodeHeader(frame->data(), wire::kRequestMagic,
                                 &payload_len, &version)
                  .ok());
  EXPECT_EQ(version, 2);
  auto decoded = wire::DecodeRequestPayload(frame->data() + wire::kHeaderBytes,
                                            payload_len, version);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->symptoms, request.symptoms);
  EXPECT_EQ(decoded->request_id, "client-abc-001");
  EXPECT_TRUE(decoded->attribution);
}

TEST(WireTest, RejectsBadRequestIds) {
  serve::Request request;
  request.symptoms = std::vector<int>{1};
  request.top_k = 5;
  request.request_id.assign(wire::kMaxWireRequestId + 1, 'x');
  EXPECT_FALSE(wire::EncodeRequest(request).ok());
  request.request_id = "has space";
  EXPECT_FALSE(wire::EncodeRequest(request).ok());
}

TEST(WireTest, ResponseRoundTrip) {
  serve::Response response;
  response.status = serve::StatusCode::kShedding;
  response.message = "admission queue full";
  response.herb_ids = {7, 0, 39};
  response.model = "test-ckpt";
  response.version = "v2";
  auto frame = wire::EncodeResponse(response);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[1], 1);  // no v2 field used
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(wire::DecodeHeader(frame->data(), wire::kResponseMagic,
                                 &payload_len, &version)
                  .ok());
  auto decoded = wire::DecodeResponsePayload(
      frame->data() + wire::kHeaderBytes, payload_len, version);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, serve::StatusCode::kShedding);
  EXPECT_EQ(decoded->message, "admission queue full");
  EXPECT_EQ(decoded->herb_ids, response.herb_ids);
  EXPECT_EQ(decoded->model, "test-ckpt");
  EXPECT_EQ(decoded->version, "v2");
}

TEST(WireTest, V2ResponseRoundTripWithAttribution) {
  serve::Response response;
  response.status = serve::StatusCode::kOk;
  response.herb_ids = {7, 0};
  response.model = "test-ckpt";
  response.version = "v3";
  response.request_id = "req-42";
  audit::QueryAttribution attr;
  attr.symptom_ids = std::vector<int>{1, 4, 9};
  attr.herbs.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    audit::HerbAttribution& herb = attr.herbs[i];
    herb.herb_id = response.herb_ids[i];
    herb.score = 1.25 + static_cast<double>(i) * 0.1;
    herb.bipar = 0.75;
    herb.synergy = herb.score - herb.bipar;
    herb.pool_bias = -0.0625;
    herb.pool_residual = 1e-17;
    herb.has_components = true;
    herb.exact = i == 0;
    herb.per_symptom = {0.5, -0.25, 0.125 + static_cast<double>(i)};
  }
  response.attribution = attr;
  auto frame = wire::EncodeResponse(response);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[1], 2);
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(wire::DecodeHeader(frame->data(), wire::kResponseMagic,
                                 &payload_len, &version)
                  .ok());
  auto decoded = wire::DecodeResponsePayload(
      frame->data() + wire::kHeaderBytes, payload_len, version);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, "req-42");
  ASSERT_TRUE(decoded->attribution.has_value());
  EXPECT_EQ(decoded->attribution->symptom_ids, attr.symptom_ids);
  ASSERT_EQ(decoded->attribution->herbs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const audit::HerbAttribution& in = attr.herbs[i];
    const audit::HerbAttribution& out = decoded->attribution->herbs[i];
    EXPECT_EQ(out.herb_id, in.herb_id);
    // f64 bit patterns on the wire: every term round-trips exactly.
    EXPECT_EQ(out.score, in.score);
    EXPECT_EQ(out.bipar, in.bipar);
    EXPECT_EQ(out.synergy, in.synergy);
    EXPECT_EQ(out.pool_bias, in.pool_bias);
    EXPECT_EQ(out.pool_residual, in.pool_residual);
    EXPECT_EQ(out.has_components, in.has_components);
    EXPECT_EQ(out.exact, in.exact);
    EXPECT_EQ(out.per_symptom, in.per_symptom);
  }
}

TEST(WireTest, OversizedAttributionIsDroppedNotFatal) {
  // An attribution block that would blow the 64 KiB frame cap is dropped;
  // the ranking and request id still travel.
  serve::Response response;
  response.herb_ids.assign(10, 3);
  response.request_id = "big";
  audit::QueryAttribution attr;
  attr.symptom_ids.assign(1000, 1);
  attr.herbs.resize(10);
  for (auto& herb : attr.herbs) herb.per_symptom.assign(1000, 0.0);
  response.attribution = std::move(attr);
  auto frame = wire::EncodeResponse(response);
  ASSERT_TRUE(frame.ok());
  ASSERT_LE(frame->size(), wire::kHeaderBytes + wire::kMaxPayloadBytes);
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(wire::DecodeHeader(frame->data(), wire::kResponseMagic,
                                 &payload_len, &version)
                  .ok());
  auto decoded = wire::DecodeResponsePayload(
      frame->data() + wire::kHeaderBytes, payload_len, version);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, "big");
  EXPECT_EQ(decoded->herb_ids.size(), 10u);
  EXPECT_FALSE(decoded->attribution.has_value());
}

TEST(WireTest, EncodeRejectsUnrepresentableRequests) {
  serve::Request dense;
  dense.symptoms = std::vector<int>{1};
  dense.top_k = 0;  // dense mode is in-process only
  EXPECT_FALSE(wire::EncodeRequest(dense).ok());

  serve::Request huge;
  huge.top_k = 5;
  huge.symptoms.assign(wire::kMaxWireSymptoms + 1, 1);
  EXPECT_FALSE(wire::EncodeRequest(huge).ok());

  serve::Request long_name;
  long_name.symptoms = std::vector<int>{1};
  long_name.top_k = 5;
  long_name.model.assign(256, 'm');
  EXPECT_FALSE(wire::EncodeRequest(long_name).ok());
}

TEST(WireTest, DecoderRejectsMalformedFrames) {
  serve::Request request;
  request.symptoms = std::vector<int>{1, 2};
  request.top_k = 5;
  auto frame = wire::EncodeRequest(request);
  ASSERT_TRUE(frame.ok());

  std::uint32_t len = 0;
  std::uint8_t ver = 0;
  // Wrong magic.
  std::vector<std::uint8_t> bad = *frame;
  bad[0] = 0x00;
  EXPECT_FALSE(
      wire::DecodeHeader(bad.data(), wire::kRequestMagic, &len, &ver).ok());
  // Response magic where a request is expected.
  bad = *frame;
  bad[0] = wire::kResponseMagic;
  EXPECT_FALSE(
      wire::DecodeHeader(bad.data(), wire::kRequestMagic, &len, &ver).ok());
  // Unknown version.
  bad = *frame;
  bad[1] = 99;
  EXPECT_FALSE(
      wire::DecodeHeader(bad.data(), wire::kRequestMagic, &len, &ver).ok());
  // Oversized declared length.
  bad = *frame;
  const std::uint32_t oversized = wire::kMaxPayloadBytes + 1;
  bad[2] = static_cast<std::uint8_t>(oversized & 0xFF);
  bad[3] = static_cast<std::uint8_t>((oversized >> 8) & 0xFF);
  bad[4] = static_cast<std::uint8_t>((oversized >> 16) & 0xFF);
  bad[5] = static_cast<std::uint8_t>((oversized >> 24) & 0xFF);
  EXPECT_FALSE(
      wire::DecodeHeader(bad.data(), wire::kRequestMagic, &len, &ver).ok());

  // Truncated payload (every prefix must decode to an error, never UB).
  const std::uint8_t* payload = frame->data() + wire::kHeaderBytes;
  const std::size_t payload_len = frame->size() - wire::kHeaderBytes;
  for (std::size_t cut = 0; cut < payload_len; ++cut) {
    EXPECT_FALSE(wire::DecodeRequestPayload(payload, cut, 1).ok()) << cut;
  }
  // Trailing garbage: exact-size match is required.
  std::vector<std::uint8_t> padded(payload, payload + payload_len);
  padded.push_back(0);
  EXPECT_FALSE(
      wire::DecodeRequestPayload(padded.data(), padded.size(), 1).ok());
  // A count field pointing past the buffer.
  std::vector<std::uint8_t> lying(payload, payload + payload_len);
  lying[6] = 0xFF;  // num_symptoms low byte
  lying[7] = 0xFF;
  EXPECT_FALSE(
      wire::DecodeRequestPayload(lying.data(), lying.size(), 1).ok());

  // Truncated v2 frames must error too, never read past the buffer.
  serve::Request v2_request;
  v2_request.symptoms = std::vector<int>{1, 2};
  v2_request.top_k = 5;
  v2_request.request_id = "abc";
  v2_request.attribution = true;
  auto v2_frame = wire::EncodeRequest(v2_request);
  ASSERT_TRUE(v2_frame.ok());
  const std::uint8_t* v2_payload = v2_frame->data() + wire::kHeaderBytes;
  const std::size_t v2_len = v2_frame->size() - wire::kHeaderBytes;
  for (std::size_t cut = 0; cut < v2_len; ++cut) {
    EXPECT_FALSE(wire::DecodeRequestPayload(v2_payload, cut, 2).ok()) << cut;
  }
}

// --------------------------------------------------------------------------
// HTTP parsing
// --------------------------------------------------------------------------

TEST(HttpTest, ParsesRequestLineAndQuery) {
  auto request = http::ParseRequest(
      "GET /v1/recommend?symptoms=1,4,9&k=10&model=m HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/v1/recommend");
  EXPECT_EQ(request->query.at("symptoms"), "1,4,9");
  EXPECT_EQ(request->query.at("k"), "10");
  EXPECT_EQ(request->query.at("model"), "m");
  EXPECT_TRUE(request->keep_alive);
}

TEST(HttpTest, HonoursConnectionClose) {
  auto request = http::ParseRequest(
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_FALSE(request->keep_alive);
}

TEST(HttpTest, RejectsMalformedHeads) {
  EXPECT_FALSE(http::ParseRequest("garbage\r\n\r\n").ok());
  EXPECT_FALSE(http::ParseRequest("GET /x SMTP/1.0\r\n\r\n").ok());
  EXPECT_FALSE(http::ParseRequest("GET relative HTTP/1.1\r\n\r\n").ok());
}

TEST(HttpTest, ParseIntList) {
  auto ids = http::ParseIntList("1,4,9");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<int>{1, 4, 9}));
  EXPECT_FALSE(http::ParseIntList("").ok());
  EXPECT_FALSE(http::ParseIntList("1,,3").ok());
  EXPECT_FALSE(http::ParseIntList("1,x").ok());
  // Ids outside the int range are rejected by name, never wrapped.
  const auto wide = http::ParseIntList("4294967297,-4294967295");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().message().find("'4294967297'"), std::string::npos)
      << wide.status();
  const auto negative = http::ParseIntList("1,-4294967295");
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("'-4294967295'"),
            std::string::npos)
      << negative.status();
  EXPECT_FALSE(http::ParseIntList("2147483648").ok());
  EXPECT_FALSE(http::ParseIntList("-2147483649").ok());
  EXPECT_FALSE(http::ParseIntList("99999999999999999999999").ok());
  const auto edges = http::ParseIntList("2147483647,-2147483648");
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(*edges, (std::vector<int>{std::numeric_limits<int>::max(),
                                      std::numeric_limits<int>::min()}));
}

// --------------------------------------------------------------------------
// Server end-to-end
// --------------------------------------------------------------------------

TEST(ServerTest, BinaryRoundTripMatchesInProcessHandle) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());

  ClientOptions copts;
  copts.port = (*server)->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  serve::Request request;
  request.symptoms = std::vector<int>{2, 4, 6};
  request.top_k = 7;
  const serve::Response local = manager->Handle(request);
  ASSERT_TRUE(local.ok());

  auto remote = (*client)->Call(request);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->status, serve::StatusCode::kOk);
  EXPECT_EQ(remote->herb_ids, local.herb_ids);
  EXPECT_EQ(remote->model, "test-ckpt");
  EXPECT_EQ(remote->version, "v1");
  // v1 client fields: the server still minted and echoed a correlation id.
  EXPECT_FALSE(remote->request_id.empty());
}

TEST(ServerTest, BinaryAttributionAndRequestIdRoundTrip) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  ClientOptions copts;
  copts.port = (*server)->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  serve::Request request;
  request.symptoms = std::vector<int>{2, 4, 6};
  request.top_k = 7;
  request.request_id = "wire-audit-1";
  request.attribution = true;
  auto response = (*client)->Call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->request_id, "wire-audit-1");
  ASSERT_TRUE(response->attribution.has_value());
  const audit::QueryAttribution& attr = *response->attribution;
  EXPECT_EQ(attr.symptom_ids, (std::vector<int>{2, 4, 6}));
  ASSERT_EQ(attr.herbs.size(), response->herb_ids.size());
  for (std::size_t i = 0; i < attr.herbs.size(); ++i) {
    const audit::HerbAttribution& herb = attr.herbs[i];
    EXPECT_EQ(herb.herb_id, response->herb_ids[i]);
    EXPECT_TRUE(herb.has_components);
    EXPECT_TRUE(herb.exact);
    // f64 engine + f64 wire bit patterns: both reconstructions survive the
    // network hop bit-exactly.
    EXPECT_EQ(herb.bipar + herb.synergy, herb.score);
    EXPECT_EQ(audit::ReconstructPooled(herb), herb.score);
  }

  // The same query without the flag returns no attribution block.
  serve::Request plain = request;
  plain.request_id.clear();
  plain.attribution = false;
  auto bare = (*client)->Call(plain);
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare->attribution.has_value());
  EXPECT_FALSE(bare->request_id.empty());
  EXPECT_EQ(bare->herb_ids, response->herb_ids);
}

TEST(ServerTest, HttpAttributionAndRequestIdEcho) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  auto result = HttpGet(
      "127.0.0.1", port,
      "/v1/recommend?symptoms=2,4,6&k=7&attribution=1&request_id=http-9");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 200);
  EXPECT_NE(result->head.find("X-Request-Id: http-9"), std::string::npos)
      << result->head;
  EXPECT_NE(result->body.find("\"request_id\":\"http-9\""),
            std::string::npos)
      << result->body;
  EXPECT_NE(result->body.find("\"attribution\":{"), std::string::npos);
  EXPECT_NE(result->body.find("\"bipar\":"), std::string::npos);
  EXPECT_NE(result->body.find("\"synergy\":"), std::string::npos);
  EXPECT_NE(result->body.find("\"per_symptom\":["), std::string::npos);

  // Without the opt-in the body carries a minted id but no attribution.
  auto plain = HttpGet("127.0.0.1", port, "/v1/recommend?symptoms=2,4,6&k=7");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->body.find("\"attribution\""), std::string::npos);
  EXPECT_NE(plain->head.find("X-Request-Id: "), std::string::npos);
}

TEST(ServerTest, PipelinedResponsesComeBackInOrder) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  ClientOptions copts;
  copts.port = (*server)->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  // Distinct top_k per request tags each response with its request.
  constexpr int kDepth = 8;
  for (int i = 0; i < kDepth; ++i) {
    serve::Request request;
    request.symptoms = std::vector<int>{1, 2, 3};
    request.top_k = static_cast<std::size_t>(i + 1);
    ASSERT_TRUE((*client)->Send(request).ok());
  }
  for (int i = 0; i < kDepth; ++i) {
    auto response = (*client)->Receive();
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->ok()) << response->message;
    EXPECT_EQ(response->herb_ids.size(), static_cast<std::size_t>(i + 1));
  }
}

TEST(ServerTest, InvalidRequestGetsErrorResponseAndConnectionSurvives) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  ClientOptions copts;
  copts.port = (*server)->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  // Framing-valid but semantically invalid: out-of-range symptom.
  serve::Request bad;
  bad.symptoms = std::vector<int>{9999};
  bad.top_k = 5;
  auto response = (*client)->Call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, serve::StatusCode::kInvalidArgument);

  // The stream is intact: a good request on the same connection works.
  serve::Request good;
  good.symptoms = std::vector<int>{1, 2};
  good.top_k = 5;
  auto next = (*client)->Call(good);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->ok());
}

TEST(ServerTest, MalformedHeaderGetsErrorFrameThenClose) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());

  auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(fd.ok());
  // Valid request magic (so the connection sniffs as binary), then a frame
  // declaring an oversized payload.
  std::uint8_t evil[wire::kHeaderBytes] = {wire::kRequestMagic,
                                           wire::kWireVersion, 0, 0, 0, 0};
  const std::uint32_t oversized = wire::kMaxPayloadBytes + 1;
  evil[2] = static_cast<std::uint8_t>(oversized & 0xFF);
  evil[3] = static_cast<std::uint8_t>((oversized >> 8) & 0xFF);
  evil[4] = static_cast<std::uint8_t>((oversized >> 16) & 0xFF);
  evil[5] = static_cast<std::uint8_t>((oversized >> 24) & 0xFF);
  ASSERT_TRUE(WriteAll(fd->get(), evil, sizeof(evil), 2000).ok());

  // The server answers with one parseable error frame...
  std::uint8_t header[wire::kHeaderBytes];
  ASSERT_TRUE(ReadExact(fd->get(), header, sizeof(header), 2000).ok());
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  ASSERT_TRUE(
      wire::DecodeHeader(header, wire::kResponseMagic, &payload_len, &version)
          .ok());
  std::vector<std::uint8_t> payload(payload_len);
  ASSERT_TRUE(
      ReadExact(fd->get(), payload.data(), payload.size(), 2000).ok());
  auto response =
      wire::DecodeResponsePayload(payload.data(), payload.size(), version);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, serve::StatusCode::kInvalidArgument);

  // ...then closes the stream.
  std::uint8_t byte = 0;
  const Status eof = ReadExact(fd->get(), &byte, 1, 2000);
  EXPECT_EQ(eof.code(), smgcn::StatusCode::kUnavailable) << eof.ToString();
}

TEST(ServerTest, HttpEndpoints) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  auto health = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto recommend =
      HttpGet("127.0.0.1", port, "/v1/recommend?symptoms=2,4,6&k=7");
  ASSERT_TRUE(recommend.ok());
  EXPECT_EQ(recommend->status, 200);
  EXPECT_NE(recommend->body.find("\"status\":\"OK\""), std::string::npos)
      << recommend->body;
  EXPECT_NE(recommend->body.find("\"herb_ids\":["), std::string::npos);

  auto bad = HttpGet("127.0.0.1", port, "/v1/recommend?symptoms=&k=7");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);

  auto models = HttpGet("127.0.0.1", port, "/v1/models");
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->status, 200);
  EXPECT_NE(models->body.find("\"test-ckpt\""), std::string::npos);
  EXPECT_NE(models->body.find("\"v1\""), std::string::npos);

  auto metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  // Prometheus text exposition: TYPE comments plus this server's counters.
  EXPECT_NE(metrics->body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics->body.find("smgcn_"), std::string::npos);

  auto slowlog = HttpGet("127.0.0.1", port, "/slowlog");
  ASSERT_TRUE(slowlog.ok());
  EXPECT_EQ(slowlog->status, 200);

  auto missing = HttpGet("127.0.0.1", port, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST(ServerTest, WireSheddingWhenQueueIsFull) {
  serve::ModelManagerOptions mopts;
  mopts.engine_options.max_batch_size = 64;
  mopts.engine_options.num_threads = 2;  // a worker per drainer
  mopts.engine_options.max_queue_depth = 2;
  mopts.engine_options.cache_capacity = 0;
  auto manager = MakeManager(mopts);
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  ClientOptions copts;
  copts.port = (*server)->port();
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  // Busy drainers hold the queue, pinned through the engine the socket
  // rides, so the burst backs up.
  testutil::DrainerPin pin(
      [&manager](std::function<void(serve::Response)> done) {
        serve::Request request;
        request.symptoms = std::vector<int>{1};
        request.top_k = 3;
        manager->SubmitRequest(std::move(request), std::move(done));
      });
  ASSERT_TRUE(pin.pinned());
  auto engine = manager->Engine("test-ckpt");
  ASSERT_TRUE(engine.ok());
  const auto* shed_counter =
      obs::Registry::Global().GetCounter((*engine)->obs_prefix() + "shed");

  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    serve::Request request;
    request.symptoms = std::vector<int>{1, 2};
    request.top_k = 5;
    ASSERT_TRUE((*client)->Send(request).ok());
  }
  // Every frame admitted (two queued, the rest shed) before the drainers
  // are let go; the queued answers hold the ordered replies until then.
  ASSERT_TRUE(WaitFor([&] { return shed_counter->value() >= kBurst - 2; }))
      << shed_counter->value();
  pin.Release();
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = (*client)->Receive();
    ASSERT_TRUE(response.ok());
    if (response->ok()) {
      ++ok;
    } else {
      // RESOURCE_EXHAUSTED on the wire — distinguishable from a timeout.
      ASSERT_EQ(response->status, serve::StatusCode::kShedding)
          << response->message;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, kBurst - 2);
}

TEST(ServerTest, GracefulDrainAnswersAcceptedRequests) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  ClientOptions copts;
  copts.port = port;
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());

  constexpr int kInflight = 6;
  for (int i = 0; i < kInflight; ++i) {
    serve::Request request;
    request.symptoms = std::vector<int>{1, 2, 3};
    request.top_k = 5;
    ASSERT_TRUE((*client)->Send(request).ok());
  }
  // Drain guarantees answers for *admitted* requests, so wait until the
  // server has read all six off the socket before stopping.
  const auto* admitted = obs::Registry::Global().GetCounter(
      (*server)->obs_prefix() + "binary_requests");
  for (int spin = 0; spin < 2000 && admitted->value() < kInflight; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(admitted->value(), static_cast<std::uint64_t>(kInflight));
  // Stop from another thread while responses are outstanding: the drain
  // must flush every admitted request before the connection closes.
  std::thread stopper([&server] { (*server)->Stop(); });
  int answered = 0;
  for (int i = 0; i < kInflight; ++i) {
    auto response = (*client)->Receive();
    if (!response.ok()) break;  // closed after the flush
    EXPECT_TRUE(response->ok()) << response->message;
    ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, kInflight);

  // After Stop: no new connections...
  EXPECT_FALSE(Client::Connect(copts).ok());
  // ...but the manager itself still serves in-process callers.
  serve::Request request;
  request.symptoms = std::vector<int>{1};
  request.top_k = 5;
  EXPECT_TRUE(manager->Handle(request).ok());
}

TEST(ServerTest, ConcurrentConnectPublishQueryHammer) {
  // TSan target: clients connecting/querying over both protocols while
  // versions publish and /metrics is scraped. Correctness bar: no data
  // races, no crashes, and every wire response is parseable.
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = (*server)->port();

  std::atomic<bool> stop{false};
  std::atomic<int> wire_ok{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([port, &stop, &wire_ok] {
      while (!stop.load(std::memory_order_relaxed)) {
        ClientOptions copts;
        copts.port = port;
        auto client = Client::Connect(copts);
        if (!client.ok()) continue;
        for (int i = 0; i < 5; ++i) {
          serve::Request request;
          request.symptoms = std::vector<int>{1 + i, 7};
          request.top_k = 5;
          auto response = (*client)->Call(request);
          if (response.ok() && response->ok()) {
            wire_ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  threads.emplace_back([port, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)HttpGet("127.0.0.1", port, "/metrics", 2000);
      (void)HttpGet("127.0.0.1", port, "/v1/recommend?symptoms=1,2&k=5",
                    2000);
    }
  });
  threads.emplace_back([&manager, &stop] {
    int v = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)manager->Publish(MakeCheckpoint(), StrFormat("v%d", v++));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_GT(wire_ok.load(), 0);
  (*server)->Stop();
}

// --------------------------------------------------------------------------
// The event loop under short I/O, resets, slow readers and idle sockets
// --------------------------------------------------------------------------

std::vector<std::uint8_t> RequestFrame(const serve::Request& request) {
  auto frame = wire::EncodeRequest(request);
  SMGCN_CHECK(frame.ok()) << frame.status();
  return *std::move(frame);
}

serve::Request RankedRequest(std::size_t top_k) {
  serve::Request request;
  request.symptoms = std::vector<int>{2, 4, 6};
  request.top_k = top_k;
  return request;
}

/// Reads one response frame from a raw connection.
Result<serve::Response> ReadResponseFrame(int fd) {
  std::uint8_t header[wire::kHeaderBytes];
  RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header), 5000));
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  RETURN_IF_ERROR(
      wire::DecodeHeader(header, wire::kResponseMagic, &payload_len, &version));
  std::vector<std::uint8_t> payload(payload_len);
  if (payload_len > 0) {
    RETURN_IF_ERROR(ReadExact(fd, payload.data(), payload.size(), 5000));
  }
  return wire::DecodeResponsePayload(payload.data(), payload.size(), version);
}

double OpenConnections(const Server& server) {
  return obs::Registry::Global()
      .GetGauge(server.obs_prefix() + "open_connections")
      ->value();
}

std::uint64_t BinaryRequests(const Server& server) {
  return obs::Registry::Global()
      .GetCounter(server.obs_prefix() + "binary_requests")
      ->value();
}

/// The process's thread count, from the Threads: line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ServerLoopTest, FrameWrittenOneByteAtATimeIsAnswered) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(fd.ok());

  const serve::Request request = RankedRequest(7);
  for (const std::uint8_t byte : RequestFrame(request)) {
    ASSERT_TRUE(WriteAll(fd->get(), &byte, 1, 2000).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto response = ReadResponseFrame(fd->get());
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->herb_ids, manager->Handle(request).herb_ids);
}

TEST(ServerLoopTest, SixtyFourFramesInOneWriteAreAnsweredInOrder) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());  // max_pipeline 32 < 64
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(fd.ok());

  // Distinct top_k per frame tags each response with its request.
  constexpr std::size_t kFrames = 64;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> frame = RequestFrame(RankedRequest(1 + i % 40));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(WriteAll(fd->get(), burst.data(), burst.size(), 2000).ok());
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto response = ReadResponseFrame(fd->get());
    ASSERT_TRUE(response.ok()) << "frame " << i << ": " << response.status();
    ASSERT_TRUE(response->ok()) << response->message;
    EXPECT_EQ(response->herb_ids.size(), 1 + i % 40) << "frame " << i;
  }
}

TEST(ServerLoopTest, PeerResetMidFrameLeavesOtherConnectionsServed) {
  serve::ModelManagerOptions mopts;
  mopts.engine_options.num_threads = 2;  // a worker per drainer
  auto manager = MakeManager(mopts);
  // Holds the engine's drainers, pinned through the engine the socket
  // rides, so admitted requests stay queued until released.
  const testutil::DrainerPin::Submit pin_submit =
      [&manager](std::function<void(serve::Response)> done) {
        serve::Request request;
        request.symptoms = std::vector<int>{1};
        request.top_k = 3;
        manager->SubmitRequest(std::move(request), std::move(done));
      };
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  ClientOptions copts;
  copts.port = (*server)->port();
  auto survivor = Client::Connect(copts);
  ASSERT_TRUE(survivor.ok());

  const std::vector<std::uint8_t> frame = RequestFrame(RankedRequest(5));
  for (int round = 0; round < 8; ++round) {
    auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
    ASSERT_TRUE(fd.ok());
    // Four whole frames, then half of a fifth.
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 4; ++i) {
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    bytes.insert(bytes.end(), frame.begin(),
                 frame.begin() + static_cast<std::ptrdiff_t>(frame.size() / 2));
    testutil::DrainerPin pin(pin_submit);
    ASSERT_TRUE(pin.pinned());
    const std::uint64_t before = BinaryRequests(**server);
    ASSERT_TRUE(WriteAll(fd->get(), bytes.data(), bytes.size(), 2000).ok());
    ASSERT_TRUE(WaitFor([&] { return BinaryRequests(**server) >= before + 4; }));
    // SO_LINGER 0: close() sends RST while the four are still in flight.
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
    fd->Reset();
    pin.Release();  // the four are answered to a reset peer
    auto response = (*survivor)->Call(RankedRequest(3));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok()) << response->message;
  }
  // Every reset connection is gone; only the survivor remains open.
  EXPECT_TRUE(WaitFor([&] { return OpenConnections(**server) == 1.0; }))
      << OpenConnections(**server);
  survivor->reset();
  EXPECT_TRUE(WaitFor([&] { return OpenConnections(**server) == 0.0; }));
}

TEST(ServerLoopTest, ClientThatNeverReadsIsPausedThenTimedOut) {
  auto manager = MakeManager();
  ServerOptions sopts;
  sopts.max_pipeline = 4;
  sopts.write_timeout_ms = 300;
  auto server = Server::Start(manager.get(), sopts);
  ASSERT_TRUE(server.ok());

  // A small receive window, set before connect so it is negotiated.
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  const int window = 4096;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &window,
                         sizeof(window)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Attributed all-herb rankings make every response a few kilobytes, so
  // the kernel buffers fill after a small share of the burst.
  serve::Request request = RankedRequest(40);
  request.attribution = true;
  const std::vector<std::uint8_t> frame = RequestFrame(request);
  constexpr std::size_t kFrames = 20000;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  // The write stalls once the server stops reading; it ends when the
  // server resets the connection (or after its own timeout).
  std::thread writer([&] {
    (void)WriteAll(fd.get(), burst.data(), burst.size(), 5000);
  });
  // Admission stops well short of the burst: with max_pipeline responses
  // unwritten the loop leaves the rest in the kernel.
  std::uint64_t admitted = 0;
  ASSERT_TRUE(WaitFor([&] {
    const std::uint64_t seen = BinaryRequests(**server);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    admitted = BinaryRequests(**server);
    return admitted > 0 && admitted == seen;
  }));
  EXPECT_LT(admitted, kFrames / 4);
  // write_timeout_ms then closes the connection.
  EXPECT_TRUE(WaitFor([&] { return OpenConnections(**server) == 0.0; }));
  EXPECT_LT(BinaryRequests(**server), kFrames / 4);
  writer.join();
}

TEST(ServerLoopTest, PipelinedHttpKeepAliveGetsAreAnsweredInOrder) {
  auto manager = MakeManager();
  auto server = Server::Start(manager.get());
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(fd.ok());

  // The recommendation is answered by the engine, /healthz by the loop
  // itself; the second must still wait its turn behind the first.
  const std::string requests =
      "GET /v1/recommend?symptoms=2,4,6&k=7 HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(WriteAll(fd->get(), requests.data(), requests.size(), 2000).ok());

  // Each response is Content-Length framed; read until both are whole.
  std::string raw;
  std::vector<std::string> bodies;
  while (bodies.size() < 2) {
    const std::size_t head_end = raw.find("\r\n\r\n");
    const std::size_t length_at = raw.find("Content-Length: ");
    if (head_end != std::string::npos && length_at < head_end) {
      const std::size_t length =
          std::strtoul(raw.c_str() + length_at + 16, nullptr, 10);
      if (raw.size() >= head_end + 4 + length) {
        EXPECT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << raw;
        bodies.push_back(raw.substr(head_end + 4, length));
        raw.erase(0, head_end + 4 + length);
        continue;
      }
    }
    ASSERT_TRUE(WaitReadable(fd->get(), 5000).ok());
    char buf[4096];
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    raw.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(bodies[0].find("\"status\":\"OK\""), std::string::npos)
      << bodies[0];
  EXPECT_EQ(bodies[1], "ok\n");
}

TEST(ServerLoopTest, IdleConnectionsAddNoThreadsAndAreCounted) {
  auto manager = MakeManager();
  ServerOptions sopts;
  sopts.max_connections = 256;
  auto server = Server::Start(manager.get(), sopts);
  ASSERT_TRUE(server.ok());
  // Threads joined by earlier tests can linger in the count for a moment;
  // take the baseline once it holds still.
  int threads = ProcessThreads();
  ASSERT_TRUE(WaitFor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = ProcessThreads();
    return std::exchange(threads, now) == now;
  }));
  ASSERT_GT(threads, 0);

  std::vector<OwnedFd> idle;
  for (const std::size_t target : {std::size_t{10}, std::size_t{100}}) {
    while (idle.size() < target) {
      auto fd = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
      ASSERT_TRUE(fd.ok()) << fd.status();
      idle.push_back(std::move(*fd));
    }
    EXPECT_TRUE(WaitFor([&] {
      return OpenConnections(**server) == static_cast<double>(target);
    })) << OpenConnections(**server);
    // No thread per connection: the count never grows past the baseline.
    EXPECT_LE(ProcessThreads(), threads) << target << " idle connections";
  }

  // The gauge is on /metrics with its own # HELP line.
  auto metrics = HttpGet("127.0.0.1", (*server)->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  std::string name = "smgcn_" + (*server)->obs_prefix() + "open_connections";
  std::replace(name.begin(), name.end(), '.', '_');
  EXPECT_NE(metrics->body.find("# HELP " + name + " "), std::string::npos)
      << name;

  idle.clear();
  EXPECT_TRUE(WaitFor([&] { return OpenConnections(**server) == 0.0; }))
      << OpenConnections(**server);
}

}  // namespace
}  // namespace net
}  // namespace smgcn
