// The socket front-end: ModelManager as a real server.
//
// One listening TCP socket speaks two protocols, sniffed per connection
// from the first byte (wire::kRequestMagic can never open an HTTP method):
//
//   * Binary (wire.h): length-prefixed serve::Request/Response frames, the
//     data plane. Connections are persistent and may pipeline up to
//     max_pipeline requests; responses always return in request order.
//     Requests ride ModelManager::SubmitRequest, so wire traffic
//     micro-batches with in-process traffic and obeys the same admission
//     control: a full engine queue answers kShedding (RESOURCE_EXHAUSTED)
//     immediately instead of queueing unboundedly, and per-request
//     deadlines propagate into the engine.
//
//   * HTTP/1.1 (http.h), the ops plane:
//       GET /healthz        "ok" (200) — or "draining" (503) during Stop
//       GET /metrics        Prometheus text exposition of the obs registry
//       GET /slowlog        recent slow queries, one line each
//       GET /v1/models      hosted models/versions as JSON
//       GET /v1/recommend?symptoms=1,4,9&k=10[&deadline_ms=5][&model=m]
//                          [&version=v]   one recommendation as JSON; the
//                          HTTP status mirrors the serving status
//                          (serve::HttpStatusFor).
//
// Threading: one event-loop thread owns every socket. The listener and all
// accepted connections are non-blocking and registered with one epoll set;
// an eventfd wakes the loop when the engine finishes a request. Each
// readable event is one buffered read() that decodes every complete frame
// (or HTTP head) it holds, so a client may split a frame across any number
// of TCP segments or pack many frames into one. Requests are admitted with
// the callback form of ModelManager::SubmitRequest; the callback, running
// on the engine thread that scored the batch, encodes the response and
// hands it back to the loop, which files it in the connection's ordered
// slot queue and flushes every in-order-ready response with one gathered
// write. A connection with max_pipeline responses outstanding is not read
// until one is written (its kernel buffers then push back on the client);
// idle_timeout_ms and write_timeout_ms are per-connection deadlines the
// loop sweeps. Connections past max_connections are closed on accept.
// Stop() drains gracefully: the listener closes first, no new bytes are
// read, every request already admitted is answered, and Stop returns only
// after every outstanding engine callback has fired and the loop has
// exited. Stop never touches the ModelManager — engines keep serving
// in-process callers.
#ifndef SMGCN_NET_SERVER_H_
#define SMGCN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/obs/registry.h"
#include "src/serve/model_manager.h"
#include "src/util/status.h"

namespace smgcn {
namespace net {

struct ServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing a model is an
  /// explicit decision.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; Server::port() reports it.
  std::uint16_t port = 0;
  /// Open connections; the loop closes arrivals beyond this.
  std::size_t max_connections = 64;
  /// Outstanding pipelined requests per connection (admitted, response not
  /// yet written) before the loop stops reading from it.
  std::size_t max_pipeline = 32;
  /// A connection with nothing outstanding that sends no byte for this
  /// long is closed.
  int idle_timeout_ms = 30000;
  /// A connection whose pending responses make no write progress for this
  /// long (a client that stopped reading) is closed.
  int write_timeout_ms = 5000;
  int listen_backlog = 128;
  /// SO_RCVBUF cap for accepted connections (0 = OS default). Bounding the
  /// kernel receive buffer bounds the *invisible* request backlog in front
  /// of admission control: an overloaded server then backpressures senders
  /// via TCP instead of buffering seconds of requests it will answer late.
  int recv_buffer_bytes = 0;
};

/// A running server. Create with Start (binds, listens, spawns the event
/// loop); destruction stops and drains. Thread-safe.
class Server {
 public:
  /// `manager` must outlive the server. Publishing at least one model
  /// before Start is typical but not required — an empty manager answers
  /// kUnavailable until the first publish (hot-add).
  static Result<std::unique_ptr<Server>> Start(serve::ModelManager* manager,
                                               ServerOptions options = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the actual one when options.port was 0).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Graceful drain: stop accepting and reading, answer everything already
  /// admitted, join the loop. Idempotent; implicit in the destructor.
  void Stop();

  /// Scope of this server's instruments in obs::Registry::Global()
  /// (e.g. "net.server0."): connections, http_requests, binary_requests,
  /// responses.<status>, protocol_errors, rejected_connections, and the
  /// open_connections gauge.
  const std::string& obs_prefix() const { return obs_prefix_; }

 private:
  struct Conn;        // one accepted socket; owned by the loop (server.cc)
  struct Completion;  // one engine answer on its way back to the loop

  Server(serve::ModelManager* manager, ServerOptions options, OwnedFd listen_fd,
         std::uint16_t port, OwnedFd epoll_fd, OwnedFd wake_fd);

  void Loop();
  void Accept();
  void Read(Conn& conn);
  /// Flushes ready answers, admits every complete buffered frame or head
  /// the pipeline bound allows, flushes again, then closes the connection
  /// or re-arms its epoll interest.
  void Settle(const std::shared_ptr<Conn>& conn);
  /// Decodes and files the one binary frame (HTTP head) at `*pos` of the
  /// connection's input, advancing `*pos`; false when it has not fully
  /// arrived or the connection must close after a protocol error.
  bool DecodeFrame(const std::shared_ptr<Conn>& conn, std::size_t* pos);
  bool DecodeHead(const std::shared_ptr<Conn>& conn, std::size_t* pos);
  /// Opens the next slot of `conn` and submits `request`; the engine
  /// callback fills the slot with `encode(response)`.
  template <typename Encode>
  void Admit(const std::shared_ptr<Conn>& conn, serve::Request request,
             Encode encode);
  /// Gathered write of every in-order-ready response.
  void Flush(Conn& conn);
  void Close(Conn& conn);
  /// Files queued engine answers in their slots and settles their
  /// connections; false (and the next callback wakes the loop) when the
  /// queue was empty.
  bool DrainCompletions();
  /// Called from engine threads: queue `frame` for slot `seq` of `conn`
  /// and wake the loop unless it is already signalled.
  void Complete(std::shared_ptr<Conn> conn, std::uint64_t seq,
                serve::StatusCode status, std::vector<std::uint8_t> frame);
  /// Routes one parsed non-recommend HTTP request; returns the response.
  std::string HandleHttp(const http::Request& request, bool keep_alive);
  void CountResponse(serve::StatusCode status);

  serve::ModelManager* manager_;
  ServerOptions options_;
  OwnedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::string obs_prefix_;
  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  // eventfd: engine callbacks and Stop wake the loop

  std::atomic<bool> draining_{false};
  std::once_flag stop_once_;

  // Loop-thread state.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // by fd
  std::size_t outstanding_ = 0;  // admitted, callback not yet drained
  std::vector<Completion> drained_;

  std::mutex done_mu_;
  std::vector<Completion> done_;  // guarded by done_mu_
  bool wake_pending_ = false;     // guarded by done_mu_

  // Instruments named <prefix><member name without the underscore>.
  obs::Counter* connections_ = nullptr;
  obs::Counter* rejected_connections_ = nullptr;
  obs::Counter* http_requests_ = nullptr;
  obs::Counter* binary_requests_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Gauge* open_connections_ = nullptr;
  /// One counter per serve::StatusCode, indexed by wire byte:
  /// <prefix>responses.<lowercase name>.
  std::vector<obs::Counter*> responses_by_status_;

  std::thread loop_thread_;  // last: it uses every member above
};

}  // namespace net
}  // namespace smgcn

#endif  // SMGCN_NET_SERVER_H_
