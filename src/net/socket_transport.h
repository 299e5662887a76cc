#ifndef QSE_NET_SOCKET_TRANSPORT_H_
#define QSE_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace net {

/// Timeouts and limits for one connection.  Blocking sockets with
/// kernel-enforced timeouts (SO_RCVTIMEO / SO_SNDTIMEO): no event loop,
/// no partial-state machine — the serving tier's concurrency lives in
/// threads, and a stuck peer costs at most one timeout.
struct TransportOptions {
  std::chrono::milliseconds connect_timeout{2000};
  std::chrono::milliseconds read_timeout{5000};
  std::chrono::milliseconds write_timeout{5000};
  /// Frames larger than this are refused — before allocation on the
  /// receive side.  Must match the codec's kMaxFrameBytes expectations.
  uint32_t max_frame_bytes = 64u << 20;
};

/// Error taxonomy (StatusFromErrno):
///   * kUnavailable      — the peer is gone or unreachable (connection
///                         refused / reset, broken pipe, clean EOF at a
///                         frame boundary).  Retryable on a fresh
///                         connection.
///   * kDeadlineExceeded — a connect/read/write timeout fired.
///   * kDataLoss         — the byte stream violated its own framing
///                         (EOF mid-frame, implausible length prefix).
///                         The connection is unusable.
///   * kIOError          — anything else errno has to offer.
Status StatusFromErrno(const std::string& context, int err);

/// One connected TCP stream, move-only RAII over the fd.  SendFrame /
/// RecvFrame speak the length-prefixed framing the wire codec assumes.
/// Not thread-safe: one request/response exchange at a time per socket
/// (the client stub pools sockets instead of sharing them).
class Socket {
 public:
  Socket() = default;
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept { *this = std::move(other); }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to an IPv4 literal (e.g. "127.0.0.1") with
  /// options.connect_timeout, then switches the socket to blocking mode
  /// with the read/write timeouts installed and TCP_NODELAY set (every
  /// frame is a complete request or response; Nagle only adds latency).
  static StatusOr<Socket> Connect(const std::string& host, uint16_t port,
                                  const TransportOptions& options);

  bool valid() const { return fd_ >= 0; }

  /// Writes `[u32 length][payload]` with one sendmsg over a two-entry
  /// iovec (no copy of the payload), so a frame leaves as one segment;
  /// a partial send is finished before returning.  InvalidArgument when
  /// the payload exceeds max_frame_bytes.
  Status SendFrame(const std::string& payload);

  /// Reads one complete frame payload.  Reads go through a per-socket
  /// buffer of kReadBufferBytes, so a queued frame that fits costs one
  /// recv; the remainder of a larger frame is read straight into the
  /// payload.  Bytes past the frame stay buffered for the next call.  A
  /// clean EOF before any header byte is kUnavailable (the peer closed
  /// between frames, the normal shutdown path); EOF anywhere inside a
  /// frame is kDataLoss.  A length prefix beyond max_frame_bytes is
  /// kDataLoss, detected before any allocation.
  StatusOr<std::string> RecvFrame();

  /// Overrides the read timeout for subsequent reads — how per-request
  /// deadline budgets bound the wait for a response.  A no-op (no
  /// syscall) when the value equals the one installed last.
  Status SetReadTimeout(std::chrono::nanoseconds timeout);

  /// True when the connection holds unread bytes (in the read buffer or
  /// the kernel) or has errored while it should be idle — how the
  /// connection pool detects a peer that died between requests.  In
  /// this request/response protocol a healthy idle connection is never
  /// readable (the peer only speaks when spoken to), so pending bytes,
  /// EOF or RST all mean: do not reuse.  Non-blocking.
  bool StaleWhileIdle() const;

  /// Half-closes both directions without releasing the fd: a thread
  /// blocked in RecvFrame on this socket wakes with an error.  Safe to
  /// call from another thread while RecvFrame runs; Close/destruction is
  /// not.
  void ShutdownBoth();

  void Close();

 private:
  friend class ServerSocket;
  /// Read buffer size: larger than any scan request or 100-candidate
  /// response the serving stack sends, small enough to keep per socket.
  static constexpr size_t kReadBufferBytes = 8192;

  Socket(int fd, const TransportOptions& options)
      : fd_(fd), options_(options) {}

  /// Installs the read and write timeouts and TCP_NODELAY on a freshly
  /// connected or accepted socket.
  Status Configure();
  /// Buffers at least n bytes (n <= kReadBufferBytes) at a frame start:
  /// EOF with nothing buffered is a clean close (kUnavailable), EOF after
  /// a partial frame is kDataLoss.
  Status Fill(size_t n);
  /// Reads exactly n bytes past the buffer, straight into `data`.
  Status RecvAll(char* data, size_t n);
  size_t buffered() const { return read_end_ - read_begin_; }

  int fd_ = -1;
  TransportOptions options_;
  /// The SO_RCVTIMEO value last installed, in microseconds (the kernel's
  /// resolution); -1 before the first install.
  int64_t read_timeout_us_ = -1;
  /// Bytes [read_begin_, read_end_) of read_buf_ are received but not
  /// yet returned.  Allocated on the first RecvFrame.
  std::unique_ptr<char[]> read_buf_;
  size_t read_begin_ = 0;
  size_t read_end_ = 0;
};

/// A listening socket.  Accept blocks (in a poll loop) until a peer
/// connects or Shutdown is called from any thread.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket() { Close(); }
  ServerSocket(ServerSocket&& other) noexcept { *this = std::move(other); }
  ServerSocket& operator=(ServerSocket&& other) noexcept;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, read it back from
  /// port()) and listens.  Loopback only: this transport is a shard
  /// interconnect, not an internet-facing endpoint.
  static StatusOr<ServerSocket> Listen(uint16_t port,
                                       const TransportOptions& options = {});

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Blocks until a connection arrives (returned with the listener's
  /// TransportOptions installed) or Shutdown is called (kUnavailable).
  StatusOr<Socket> Accept();

  /// Makes every current and future Accept return kUnavailable.
  /// Idempotent; callable from any thread.
  void Shutdown();

  void Close();

 private:
  ServerSocket(int fd, uint16_t port, const TransportOptions& options)
      : fd_(fd),
        port_(port),
        options_(options),
        shutdown_(std::make_shared<std::atomic<bool>>(false)) {}

  int fd_ = -1;
  uint16_t port_ = 0;
  TransportOptions options_;
  /// shared_ptr so Shutdown stays safe across moves of the listener.
  std::shared_ptr<std::atomic<bool>> shutdown_;
};

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_SOCKET_TRANSPORT_H_
