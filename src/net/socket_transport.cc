#include "src/net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace qse {
namespace net {
namespace {

Status SetTimeoutOpt(int fd, int opt, std::chrono::nanoseconds timeout) {
  // 0 would mean "block forever" to the kernel; clamp to the smallest
  // representable timeout instead so a spent deadline still errors out.
  if (timeout.count() <= 0) timeout = std::chrono::microseconds(1);
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(
      std::chrono::duration_cast<std::chrono::seconds>(timeout).count());
  tv.tv_usec = static_cast<suseconds_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(timeout).count() %
      1000000);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  if (setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) != 0) {
    return StatusFromErrno("setsockopt", errno);
  }
  return Status::OK();
}

Status SetNonBlocking(int fd, bool enable) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return StatusFromErrno("fcntl(F_GETFL)", errno);
  flags = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, flags) < 0) {
    return StatusFromErrno("fcntl(F_SETFL)", errno);
  }
  return Status::OK();
}

}  // namespace

Status StatusFromErrno(const std::string& context, int err) {
  const std::string msg = context + ": " + strerror(err);
  switch (err) {
    case ECONNREFUSED:
    case ECONNRESET:
    case EPIPE:
    case ENETUNREACH:
    case EHOSTUNREACH:
    case ENOTCONN:
    case ESHUTDOWN:
      return Status::Unavailable(msg);
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ETIMEDOUT:
      return Status::DeadlineExceeded(msg);
    default:
      return Status::IOError(msg);
  }
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    options_ = other.options_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::Connect(const std::string& host, uint16_t port,
                                 const TransportOptions& options) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 literal: " + host);
  }

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return StatusFromErrno("socket", errno);
  Socket sock(fd, options);  // RAII from here on

  // Non-blocking connect bounded by connect_timeout: a plain connect()
  // would block for the kernel's SYN retry schedule (minutes).
  QSE_RETURN_IF_ERROR(SetNonBlocking(fd, true));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) return StatusFromErrno("connect", errno);
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready =
        poll(&pfd, 1, static_cast<int>(options.connect_timeout.count()));
    if (ready < 0) return StatusFromErrno("poll(connect)", errno);
    if (ready == 0) {
      return Status::DeadlineExceeded("connect to " + host + ":" +
                                      std::to_string(port) + " timed out");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      return StatusFromErrno("getsockopt(SO_ERROR)", errno);
    }
    if (soerr != 0) return StatusFromErrno("connect", soerr);
  }
  QSE_RETURN_IF_ERROR(SetNonBlocking(fd, false));

  QSE_RETURN_IF_ERROR(SetTimeoutOpt(fd, SO_RCVTIMEO, options.read_timeout));
  QSE_RETURN_IF_ERROR(SetTimeoutOpt(fd, SO_SNDTIMEO, options.write_timeout));
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status Socket::SendFrame(const std::string& payload) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  if (payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument("frame too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  QSE_RETURN_IF_ERROR(SendAll(&len, sizeof(len)));
  return SendAll(payload.data(), payload.size());
}

StatusOr<std::string> Socket::RecvFrame() {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  uint32_t len = 0;
  QSE_RETURN_IF_ERROR(RecvAll(&len, sizeof(len), /*at_frame_start=*/true));
  if (len > options_.max_frame_bytes) {
    return Status::DataLoss("incoming frame claims " + std::to_string(len) +
                            " bytes, cap is " +
                            std::to_string(options_.max_frame_bytes));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    QSE_RETURN_IF_ERROR(RecvAll(&payload[0], len, /*at_frame_start=*/false));
  }
  return payload;
}

Status Socket::SetReadTimeout(std::chrono::nanoseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  return SetTimeoutOpt(fd_, SO_RCVTIMEO, timeout);
}

bool Socket::StaleWhileIdle() const {
  if (fd_ < 0) return true;
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  // Readable / HUP / error / poll failure: anything but a quiet socket.
  return ::poll(&pfd, 1, 0) != 0;
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SendAll(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-killing
    // SIGPIPE — mandatory in a multi-shard client where peers die.
    ssize_t r = send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("send", errno);
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t n, bool at_frame_start) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < n) {
    ssize_t r = recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("recv", errno);
    }
    if (r == 0) {
      // Clean FIN.  Between frames that's a normal close; inside a
      // frame the stream lied about its own length.
      if (at_frame_start && got == 0) {
        return Status::Unavailable("peer closed connection");
      }
      return Status::DataLoss("peer closed mid-frame (" + std::to_string(got) +
                              " of " + std::to_string(n) + " bytes)");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

ServerSocket& ServerSocket::operator=(ServerSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    options_ = other.options_;
    shutdown_ = std::move(other.shutdown_);
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

StatusOr<ServerSocket> ServerSocket::Listen(uint16_t port,
                                            const TransportOptions& options) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return StatusFromErrno("socket", errno);
  ServerSocket server(fd, port, options);

  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return StatusFromErrno("bind", errno);
  }
  if (listen(fd, 128) != 0) return StatusFromErrno("listen", errno);

  // Ephemeral bind: read back the kernel's pick.
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return StatusFromErrno("getsockname", errno);
  }
  server.port_ = ntohs(addr.sin_port);

  // Non-blocking accept + poll so Shutdown from another thread is
  // noticed within one poll tick rather than at the next connection.
  QSE_RETURN_IF_ERROR(SetNonBlocking(fd, true));
  return server;
}

StatusOr<Socket> ServerSocket::Accept() {
  if (fd_ < 0 || shutdown_ == nullptr) {
    return Status::Unavailable("listener is closed");
  }
  while (!shutdown_->load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int ready = poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("poll(accept)", errno);
    }
    if (ready == 0) continue;  // tick: re-check the shutdown flag
    int conn = accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return StatusFromErrno("accept", errno);
    }
    Socket sock(conn, options_);
    Status status = SetTimeoutOpt(conn, SO_RCVTIMEO, options_.read_timeout);
    if (status.ok()) {
      status = SetTimeoutOpt(conn, SO_SNDTIMEO, options_.write_timeout);
    }
    if (!status.ok()) return status;
    int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
  }
  return Status::Unavailable("listener shut down");
}

void ServerSocket::Shutdown() {
  if (shutdown_ != nullptr) {
    shutdown_->store(true, std::memory_order_release);
  }
}

void ServerSocket::Close() {
  Shutdown();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace qse
