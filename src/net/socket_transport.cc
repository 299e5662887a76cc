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
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace qse {
namespace net {
namespace {

/// A timeout in the kernel's microsecond resolution.  0 would mean
/// "block forever" to the kernel; clamp to the smallest representable
/// timeout instead so a spent deadline still errors out.
int64_t TimeoutMicros(std::chrono::nanoseconds timeout) {
  const int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(timeout).count();
  return us < 1 ? 1 : us;
}

Status SetTimeoutOpt(int fd, int opt, int64_t us) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(us / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1000000);
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
    read_timeout_us_ = other.read_timeout_us_;
    read_buf_ = std::move(other.read_buf_);
    read_begin_ = other.read_begin_;
    read_end_ = other.read_end_;
    other.fd_ = -1;
    other.read_begin_ = other.read_end_ = 0;
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
  QSE_RETURN_IF_ERROR(sock.Configure());
  return sock;
}

Status Socket::Configure() {
  QSE_RETURN_IF_ERROR(SetReadTimeout(options_.read_timeout));
  QSE_RETURN_IF_ERROR(SetTimeoutOpt(fd_, SO_SNDTIMEO,
                                    TimeoutMicros(options_.write_timeout)));
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status Socket::SendFrame(const std::string& payload) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  if (payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument("frame too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  struct iovec iov[2];
  iov[0].iov_base = &len;
  iov[0].iov_len = sizeof(len);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-killing
    // SIGPIPE — mandatory in a multi-shard client where peers die.
    ssize_t r = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("sendmsg", errno);
    }
    // Partial send: skip the entries sent in full, trim the next one.
    size_t sent = static_cast<size_t>(r);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

StatusOr<std::string> Socket::RecvFrame() {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  uint32_t len = 0;
  QSE_RETURN_IF_ERROR(Fill(sizeof(len)));
  std::memcpy(&len, read_buf_.get() + read_begin_, sizeof(len));
  read_begin_ += sizeof(len);
  if (len > options_.max_frame_bytes) {
    return Status::DataLoss("incoming frame claims " + std::to_string(len) +
                            " bytes, cap is " +
                            std::to_string(options_.max_frame_bytes));
  }
  std::string payload(len, '\0');
  const size_t from_buffer = std::min<size_t>(len, buffered());
  std::memcpy(&payload[0], read_buf_.get() + read_begin_, from_buffer);
  read_begin_ += from_buffer;
  if (from_buffer < len) {
    QSE_RETURN_IF_ERROR(RecvAll(&payload[from_buffer], len - from_buffer));
  }
  return payload;
}

Status Socket::SetReadTimeout(std::chrono::nanoseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  const int64_t us = TimeoutMicros(timeout);
  if (us == read_timeout_us_) return Status::OK();
  QSE_RETURN_IF_ERROR(SetTimeoutOpt(fd_, SO_RCVTIMEO, us));
  read_timeout_us_ = us;
  return Status::OK();
}

bool Socket::StaleWhileIdle() const {
  if (fd_ < 0 || buffered() > 0) return true;
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

Status Socket::Fill(size_t n) {
  if (read_buf_ == nullptr) read_buf_.reset(new char[kReadBufferBytes]);
  if (buffered() >= n) return Status::OK();
  // Slide the unread tail to the front so one recv can take the most.
  std::memmove(read_buf_.get(), read_buf_.get() + read_begin_, buffered());
  read_end_ = buffered();
  read_begin_ = 0;
  while (read_end_ < n) {
    ssize_t r =
        recv(fd_, read_buf_.get() + read_end_, kReadBufferBytes - read_end_, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("recv", errno);
    }
    if (r == 0) {
      // Clean FIN.  Between frames that's a normal close; inside a
      // frame the stream lied about its own length.
      if (read_end_ == 0) {
        return Status::Unavailable("peer closed connection");
      }
      return Status::DataLoss("peer closed mid-frame (" +
                              std::to_string(read_end_) + " of " +
                              std::to_string(n) + " bytes)");
    }
    read_end_ += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status Socket::RecvAll(char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = recv(fd_, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("recv", errno);
    }
    if (r == 0) {
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
    QSE_RETURN_IF_ERROR(sock.Configure());
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
