#include "src/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/string_util.h"

namespace smgcn {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s failed: %s", what, strerror(errno)));
}

Result<sockaddr_in> ResolveV4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Dotted-quad only: the serving stack is deliberately resolver-free
  // (loopback and explicit addresses cover tests, benches and deploys
  // behind a load balancer).
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat(
        "host '%s' is not an IPv4 address (hostname resolution is not "
        "supported)",
        host.c_str()));
  }
  return addr;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> ListenTcp(const std::string& host, std::uint16_t port,
                          int backlog, std::uint16_t* bound_port,
                          int recv_buffer_bytes) {
  ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  // Rebinding the port right after a restart should not trip TIME_WAIT.
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (recv_buffer_bytes > 0) {
    // Before listen() so accepted sockets inherit it and the TCP window
    // is negotiated to match. The kernel may round up to its floor.
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                       sizeof(recv_buffer_bytes));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) !=
        0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

Result<OwnedFd> ConnectTcp(const std::string& host, std::uint16_t port,
                           int timeout_ms, int send_buffer_bytes) {
  ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  if (send_buffer_bytes > 0) {
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &send_buffer_bytes,
                       sizeof(send_buffer_bytes));
  }
  // Non-blocking connect + poll gives the handshake a real timeout.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  (void)::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return Errno("connect");
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded(
          StrFormat("connect to %s:%u timed out after %d ms", host.c_str(),
                    port, timeout_ms));
    }
    if (ready < 0) return Errno("poll");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return Status::IoError(StrFormat("connect to %s:%u failed: %s",
                                       host.c_str(), port,
                                       strerror(err != 0 ? err : errno)));
    }
  }
  (void)::fcntl(fd.get(), F_SETFL, flags);  // back to blocking
  const int one = 1;
  // Request/response round trips are latency-bound; never Nagle-delay them.
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) {
    return Status::DeadlineExceeded(
        StrFormat("read timed out after %d ms", timeout_ms));
  }
  if (ready < 0) return Errno("poll");
  return Status::OK();
}

Status ReadExact(int fd, void* data, std::size_t size, int timeout_ms) {
  std::uint8_t* out = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    RETURN_IF_ERROR(WaitReadable(fd, timeout_ms));
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      if (got == 0) return Status::Unavailable("peer closed the connection");
      return Status::IoError(StrFormat(
          "peer closed mid-record (%zu of %zu bytes)", got, size));
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* data, std::size_t size, int timeout_ms) {
  const std::uint8_t* in = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded(
          StrFormat("write timed out after %d ms", timeout_ms));
    }
    if (ready < 0) return Errno("poll");
    const ssize_t n = ::send(fd, in + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace smgcn
