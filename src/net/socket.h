// Thin RAII-free POSIX socket helpers shared by the server and client.
//
// Everything here is blocking-with-timeout: reads and writes poll() the fd
// first, so a stuck peer costs a bounded wait (DeadlineExceeded), never a
// hung thread. No sockets library is linked — this is plain <sys/socket.h>,
// which keeps the serving stack dependency-free.
//
// Error taxonomy (all smgcn::Status):
//   DeadlineExceeded  the timeout elapsed before the fd was ready
//   Unavailable       the peer closed the connection (clean EOF mid-read)
//   IoError           the syscall itself failed (errno in the message)
#ifndef SMGCN_NET_SOCKET_H_
#define SMGCN_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace smgcn {
namespace net {

/// Owns a file descriptor; closes on destruction. Move-only. The minimal
/// RAII wrapper both sides of the protocol share.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (TCP). port 0 asks the kernel for an
/// ephemeral port; `bound_port` receives the actual one either way.
/// recv_buffer_bytes > 0 caps SO_RCVBUF on the listen socket (inherited by
/// accepted connections): a small receive buffer bounds how much traffic
/// can queue in the kernel *before* admission control ever sees it, so an
/// overloaded server pushes backpressure to the network instead of
/// buffering seconds of stale requests. 0 keeps the OS default.
Result<OwnedFd> ListenTcp(const std::string& host, std::uint16_t port,
                          int backlog, std::uint16_t* bound_port,
                          int recv_buffer_bytes = 0);

/// Connects to host:port, waiting at most timeout_ms for the handshake.
/// send_buffer_bytes > 0 caps SO_SNDBUF (0 = OS default): with both peers'
/// buffers bounded, a sender outpacing the server blocks in Send() instead
/// of growing an invisible kernel backlog.
Result<OwnedFd> ConnectTcp(const std::string& host, std::uint16_t port,
                           int timeout_ms, int send_buffer_bytes = 0);

/// Blocks until fd is readable (POLLIN) or timeout_ms elapses.
Status WaitReadable(int fd, int timeout_ms);

/// Reads exactly `size` bytes, polling before every read. Unavailable on a
/// clean EOF at offset 0 ("peer closed"), IoError on EOF mid-record.
Status ReadExact(int fd, void* data, std::size_t size, int timeout_ms);

/// Writes all `size` bytes, polling for writability as needed.
Status WriteAll(int fd, const void* data, std::size_t size, int timeout_ms);

}  // namespace net
}  // namespace smgcn

#endif  // SMGCN_NET_SOCKET_H_
