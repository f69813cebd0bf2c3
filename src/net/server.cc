#include "src/net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>

#include "src/net/wire.h"
#include "src/serve/status.h"
#include "src/util/string_util.h"

namespace smgcn {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;
using Bytes = std::vector<std::uint8_t>;

/// The loop's epoll_wait timeout and so the granularity of the idle and
/// write deadlines it sweeps.
constexpr int kSweepMs = 20;
/// Bytes per read(); a full read is repeated, a short one waits for epoll.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Responses gathered into one sendmsg.
constexpr int kMaxIov = 64;

bool Watch(int epoll_fd, int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// A frame answering `status` — a protocol error, or an unencodable
/// response (unreachable: messages are bounded upstream) — in place of a
/// request's answer, so the stream stays in sync.
Bytes ErrorFrame(const Status& status) {
  serve::Response error;
  error.status = serve::FromInternalStatus(status);
  error.message = status.message();
  return *wire::EncodeResponse(error);
}

Bytes Frame(const serve::Response& response) {
  auto frame = wire::EncodeResponse(response);
  return frame.ok() ? *std::move(frame) : ErrorFrame(frame.status());
}

}  // namespace

/// One accepted socket. Only the loop thread touches its fields; engine
/// callbacks just hold the shared_ptr, so an answer for a connection the
/// loop already closed lands harmlessly and is dropped.
struct Server::Conn {
  OwnedFd fd;
  enum class Proto : std::uint8_t { kSniff, kBinary, kHttp } proto =
      Proto::kSniff;
  Bytes in;  // read, not yet decoded
  /// Admitted requests in order, each response once it is ready (nullopt
  /// while in flight); the front may be partly written.
  std::deque<std::optional<Bytes>> out;
  std::size_t out_pos = 0;      // bytes of out.front() already written
  std::uint64_t front_seq = 0;  // sequence number of out.front()
  std::uint32_t events = EPOLLIN;  // current epoll interest
  bool eof = false;                // peer shut its write side
  bool close_after_flush = false;  // protocol error or Connection: close
  bool paused = false;  // became readable with max_pipeline outstanding
  bool blocked = false;  // waiting for EPOLLOUT
  bool closed = false;
  Clock::time_point idle_deadline;
  Clock::time_point write_deadline = Clock::time_point::max();
};

struct Server::Completion {
  std::shared_ptr<Conn> conn;
  std::uint64_t seq = 0;
  serve::StatusCode status = serve::StatusCode::kOk;
  Bytes frame;
};

Result<std::unique_ptr<Server>> Server::Start(serve::ModelManager* manager,
                                              ServerOptions options) {
  if (manager == nullptr) {
    return Status::InvalidArgument("manager must be non-null");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (options.max_pipeline == 0) {
    return Status::InvalidArgument("max_pipeline must be positive");
  }
  std::uint16_t port = 0;
  ASSIGN_OR_RETURN(OwnedFd listen_fd,
                   ListenTcp(options.host, options.port, options.listen_backlog,
                             &port, options.recv_buffer_bytes));
  OwnedFd epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
  OwnedFd wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!epoll_fd.valid() || !wake_fd.valid() ||
      ::fcntl(listen_fd.get(), F_SETFL, O_NONBLOCK) != 0 ||
      !Watch(epoll_fd.get(), EPOLL_CTL_ADD, listen_fd.get(), EPOLLIN) ||
      !Watch(epoll_fd.get(), EPOLL_CTL_ADD, wake_fd.get(), EPOLLIN)) {
    return Status::IoError(
        StrFormat("event loop set-up failed: %s", std::strerror(errno)));
  }
  return std::unique_ptr<Server>(
      new Server(manager, std::move(options), std::move(listen_fd), port,
                 std::move(epoll_fd), std::move(wake_fd)));
}

Server::Server(serve::ModelManager* manager, ServerOptions options,
               OwnedFd listen_fd, std::uint16_t port, OwnedFd epoll_fd,
               OwnedFd wake_fd)
    : manager_(manager),
      options_(std::move(options)),
      listen_fd_(std::move(listen_fd)),
      port_(port),
      obs_prefix_(obs::Registry::Global().NextScopeId("net.server")),
      epoll_fd_(std::move(epoll_fd)),
      wake_fd_(std::move(wake_fd)) {
  obs::Registry& registry = obs::Registry::Global();
  connections_ = registry.GetCounter(obs_prefix_ + "connections");
  rejected_connections_ =
      registry.GetCounter(obs_prefix_ + "rejected_connections");
  http_requests_ = registry.GetCounter(obs_prefix_ + "http_requests");
  binary_requests_ = registry.GetCounter(obs_prefix_ + "binary_requests");
  protocol_errors_ = registry.GetCounter(obs_prefix_ + "protocol_errors");
  open_connections_ = registry.GetGauge(obs_prefix_ + "open_connections");
  for (std::uint8_t b = 0; b <= serve::kMaxWireStatusByte; ++b) {
    // Lowercase segment per status: "ok", "invalid_argument", ...
    std::string name =
        serve::StatusCodeName(static_cast<serve::StatusCode>(b));
    for (char& c : name) {
      c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
    }
    responses_by_status_.push_back(
        registry.GetCounter(obs_prefix_ + "responses." + name));
  }
  loop_thread_ = std::thread([this] { Loop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    draining_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_.get(), &one, sizeof(one));
    loop_thread_.join();
  });
}

void Server::CountResponse(serve::StatusCode status) {
  responses_by_status_[serve::ToWireByte(status)]->Increment();
}

void Server::Loop() {
  epoll_event events[64];
  Clock::time_point next_sweep = Clock::now();
  while (true) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, kSweepMs);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        std::uint64_t count = 0;
        (void)!::read(fd, &count, sizeof(count));
      } else if (fd == listen_fd_.get()) {
        Accept();
      } else if (const auto it = conns_.find(fd); it != conns_.end()) {
        const std::shared_ptr<Conn> conn = it->second;
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          Close(*conn);  // reset by the peer: nothing can be delivered
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) Read(*conn);
        if (!conn->closed) Settle(conn);
      }
    }
    while (DrainCompletions()) {
    }
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listen_fd_.valid()) {
      // Drain: refuse new connections and sweep now, closing connections
      // with nothing outstanding; Settle stops reading from the rest and
      // closes each once its admitted answers have flushed.
      listen_fd_.Reset();  // closing also leaves the epoll set
      next_sweep = Clock::time_point();
    }
    const Clock::time_point now = Clock::now();
    if (now >= next_sweep) {
      next_sweep = now + std::chrono::milliseconds(kSweepMs);
      std::vector<Conn*> expired;
      for (const auto& [fd, conn] : conns_) {
        if (now >= conn->write_deadline ||
            (conn->out.empty() && (draining || now >= conn->idle_deadline))) {
          expired.push_back(conn.get());
        }
      }
      for (Conn* conn : expired) Close(*conn);
    }
    if (draining && outstanding_ == 0 && conns_.empty()) return;
  }
}

void Server::Accept() {
  while (true) {
    OwnedFd fd(::accept4(listen_fd_.get(), nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) return;  // backlog drained
    if (conns_.size() >= options_.max_connections) {
      // Beyond capacity the cheapest honest answer is a refused connection.
      rejected_connections_->Increment();
      continue;  // closes via RAII
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!Watch(epoll_fd_.get(), EPOLL_CTL_ADD, fd.get(), EPOLLIN)) continue;
    connections_->Increment();
    auto conn = std::make_shared<Conn>();
    conn->fd = std::move(fd);
    conn->idle_deadline =
        Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    conns_.emplace(conn->fd.get(), conn);
    open_connections_->Set(static_cast<double>(conns_.size()));
  }
}

void Server::Read(Conn& c) {
  if (c.out.size() >= options_.max_pipeline) {
    c.paused = true;  // backpressure: leave the bytes in the kernel
    return;
  }
  std::uint8_t buf[kReadChunk];
  ssize_t n = static_cast<ssize_t>(kReadChunk);
  while (n == static_cast<ssize_t>(kReadChunk)) {
    n = ::read(c.fd.get(), buf, kReadChunk);
    if (n > 0) c.in.insert(c.in.end(), buf, buf + n);
  }
  if (n == 0) c.eof = true;  // answer what was admitted, then close
  if (n < 0 && errno != EAGAIN && errno != EINTR) return Close(c);
  c.idle_deadline =
      Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
  if (c.proto == Conn::Proto::kSniff && !c.in.empty()) {
    c.proto = c.in[0] == wire::kRequestMagic ? Conn::Proto::kBinary
                                             : Conn::Proto::kHttp;
  }
}

void Server::Settle(const std::shared_ptr<Conn>& conn) {
  Conn& c = *conn;
  const bool draining = draining_.load(std::memory_order_acquire);
  Flush(c);  // written answers first make room for buffered requests
  if (!c.closed && !draining && c.proto != Conn::Proto::kSniff) {
    std::size_t pos = 0;
    while (!c.close_after_flush && c.out.size() < options_.max_pipeline &&
           (c.proto == Conn::Proto::kBinary ? DecodeFrame(conn, &pos)
                                            : DecodeHead(conn, &pos))) {
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
    Flush(c);  // answers the loop wrote itself (errors, ops endpoints)
  }
  if (c.closed) return;
  if (c.out.empty() && (c.close_after_flush || c.eof || draining)) {
    return Close(c);
  }
  if (c.out.size() < options_.max_pipeline) c.paused = false;
  const bool read = !c.eof && !c.close_after_flush && !draining && !c.paused;
  const std::uint32_t events =
      (read ? EPOLLIN : 0u) | (c.blocked ? EPOLLOUT : 0u);
  if (events != c.events) {
    c.events = events;
    (void)Watch(epoll_fd_.get(), EPOLL_CTL_MOD, c.fd.get(), events);
  }
}

template <typename Encode>
void Server::Admit(const std::shared_ptr<Conn>& conn, serve::Request request,
                   Encode encode) {
  const std::uint64_t seq = conn->front_seq + conn->out.size();
  conn->out.emplace_back();
  ++outstanding_;
  manager_->SubmitRequest(
      std::move(request),
      [this, conn, seq, encode](serve::Response response) mutable {
        Complete(std::move(conn), seq, response.status, encode(response));
      });
}

bool Server::DecodeFrame(const std::shared_ptr<Conn>& conn, std::size_t* pos) {
  Conn& c = *conn;
  const auto reject = [this, &c](const Status& status) {
    protocol_errors_->Increment();
    CountResponse(serve::FromInternalStatus(status));
    c.out.emplace_back(ErrorFrame(status));
  };
  if (c.in.size() - *pos < wire::kHeaderBytes) return false;
  std::uint32_t payload_len = 0;
  std::uint8_t wire_version = 0;
  const Status head = wire::DecodeHeader(
      c.in.data() + *pos, wire::kRequestMagic, &payload_len, &wire_version);
  if (!head.ok()) {
    // Malformed or oversized frame: the stream cannot be resynced, so
    // answer with one well-formed error frame (in order) and close.
    reject(head);
    c.close_after_flush = true;
    return false;
  }
  if (c.in.size() - *pos - wire::kHeaderBytes < payload_len) return false;
  binary_requests_->Increment();
  auto request = wire::DecodeRequestPayload(
      c.in.data() + *pos + wire::kHeaderBytes, payload_len, wire_version);
  *pos += wire::kHeaderBytes + payload_len;
  if (request.ok()) {
    Admit(conn, *std::move(request), Frame);
  } else {
    // Framing held but the payload is malformed: answer in order and keep
    // the connection — the next frame is parseable.
    reject(request.status());
  }
  return true;
}

void Server::Flush(Conn& c) {
  while (!c.out.empty() && c.out.front().has_value()) {
    iovec iov[kMaxIov];
    int count = 0;
    for (auto it = c.out.begin();
         it != c.out.end() && it->has_value() && count < kMaxIov; ++it) {
      const std::size_t skip = count == 0 ? c.out_pos : 0;
      iov[count++] = {(*it)->data() + skip, (*it)->size() - skip};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t sent = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN) return Close(c);
      if (!c.blocked) {  // the client is not reading: wait, but not forever
        c.blocked = true;
        c.write_deadline = Clock::now() +
                           std::chrono::milliseconds(options_.write_timeout_ms);
      }
      return;
    }
    c.blocked = false;  // progress: the next EAGAIN restarts the deadline
    for (auto left = static_cast<std::size_t>(sent); left > 0;) {
      const std::size_t take =
          std::min(left, c.out.front()->size() - c.out_pos);
      left -= take;
      c.out_pos += take;
      if (c.out_pos == c.out.front()->size()) {
        c.out.pop_front();
        c.out_pos = 0;
        ++c.front_seq;
      }
    }
  }
  c.blocked = false;
  c.write_deadline = Clock::time_point::max();
}

void Server::Close(Conn& c) {
  if (c.closed) return;
  c.closed = true;
  const int fd = c.fd.get();
  c.fd.Reset();      // closing also leaves the epoll set
  conns_.erase(fd);  // may drop the last reference to `c`: touch it no more
  open_connections_->Set(static_cast<double>(conns_.size()));
}

void Server::Complete(std::shared_ptr<Conn> conn, std::uint64_t seq,
                      serve::StatusCode status, Bytes frame) {
  // The eventfd write happens under done_mu_: once the loop has drained
  // this completion no callback still touches the server, so Stop may
  // return and the server be destroyed.
  std::lock_guard<std::mutex> lock(done_mu_);
  done_.push_back({std::move(conn), seq, status, std::move(frame)});
  if (!wake_pending_) {
    wake_pending_ = true;
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_.get(), &one, sizeof(one));
  }
}

bool Server::DrainCompletions() {
  {
    // wake_pending_ stays set while the loop is awake, so callbacks landing
    // meanwhile skip the eventfd write; it clears only once the queue is
    // seen empty, right before the loop may block again.
    std::lock_guard<std::mutex> lock(done_mu_);
    if (done_.empty()) {
      wake_pending_ = false;
      return false;
    }
    drained_.swap(done_);
  }
  for (Completion& done : drained_) {
    --outstanding_;
    Conn& c = *done.conn;
    if (c.closed) continue;  // the peer went away; drop the answer
    CountResponse(done.status);
    c.out[done.seq - c.front_seq] = std::move(done.frame);
  }
  // Then one Settle, and so one gathered write, per connection run.
  for (std::size_t i = 0; i < drained_.size(); ++i) {
    const std::shared_ptr<Conn>& conn = drained_[i].conn;
    if (!conn->closed && (i == 0 || conn != drained_[i - 1].conn)) {
      Settle(conn);
    }
  }
  drained_.clear();
  return true;
}

std::string Server::HandleHttp(const http::Request& request,
                               bool keep_alive) {
  if (request.method != "GET") {
    return http::FormatResponse(405, "text/plain",
                                "only GET is supported\n", keep_alive);
  }
  if (request.path == "/healthz") {
    const bool up = !draining_.load(std::memory_order_acquire);
    return http::FormatResponse(up ? 200 : 503, "text/plain",
                                up ? "ok\n" : "draining\n", keep_alive);
  }
  if (request.path == "/metrics") {
    return http::FormatResponse(
        200, "text/plain; version=0.0.4",
        obs::Registry::Global().ExportPrometheus(), keep_alive);
  }
  if (request.path == "/slowlog") {
    return http::FormatResponse(200, "text/plain",
                                http::SlowLogText(*manager_), keep_alive);
  }
  if (request.path == "/v1/models") {
    return http::FormatResponse(200, "application/json",
                                http::ModelsJson(manager_->ListModels()),
                                keep_alive);
  }
  return http::FormatResponse(404, "text/plain",
                              "unknown path; try /healthz /metrics /slowlog "
                              "/v1/models /v1/recommend\n",
                              keep_alive);
}

bool Server::DecodeHead(const std::shared_ptr<Conn>& conn, std::size_t* pos) {
  Conn& c = *conn;
  const std::string_view rest(
      reinterpret_cast<const char*>(c.in.data()) + *pos, c.in.size() - *pos);
  const std::size_t end = rest.find("\r\n\r\n");
  // An unterminated head past the cap goes to ParseRequest, which rejects
  // it as oversized.
  if (end == rest.npos && rest.size() <= http::kMaxHeadBytes) return false;
  const std::string head(rest.substr(0, end == rest.npos ? end : end + 4));
  *pos += head.size();
  http_requests_->Increment();
  auto request = http::ParseRequest(head);
  if (!request.ok()) {
    protocol_errors_->Increment();
    c.out.emplace_back(ToBytes(http::FormatResponse(
        400, "text/plain", std::string(request.status().message()) + "\n",
        /*keep_alive=*/false)));
    c.close_after_flush = true;
    return false;
  }
  const bool keep_alive = request->keep_alive;
  c.close_after_flush = !keep_alive;
  serve::Request serving;
  serve::Response error;
  if (request->method != "GET" || request->path != "/v1/recommend") {
    c.out.emplace_back(ToBytes(HandleHttp(*request, keep_alive)));
  } else if (!http::ParseRecommendRequest(*request, &serving, &error)) {
    CountResponse(error.status);
    c.out.emplace_back(
        ToBytes(http::FormatRecommendResponse(error, keep_alive)));
  } else {
    // Ride the async path: HTTP requests micro-batch with binary and
    // in-process traffic and obey the same admission control.
    Admit(conn, std::move(serving), [keep_alive](const serve::Response& r) {
      return ToBytes(http::FormatRecommendResponse(r, keep_alive));
    });
  }
  return true;
}

}  // namespace net
}  // namespace smgcn
