// Socket transport tests: framing round trips however the peer splits
// its frames into sends, the EOF taxonomy (clean close vs mid-frame),
// oversized frames refused before allocation, read timeouts, buffered
// bytes counting as a non-idle socket, connection refusal, and listener
// shutdown from another thread.
#include "src/net/socket_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

namespace qse {
namespace net {
namespace {

TransportOptions FastOptions() {
  TransportOptions options;
  options.connect_timeout = std::chrono::milliseconds(500);
  options.read_timeout = std::chrono::milliseconds(500);
  options.write_timeout = std::chrono::milliseconds(500);
  return options;
}

/// A listener plus one accepted connection, the unit every test needs.
struct Pair {
  ServerSocket listener;
  Socket server_side;
  Socket client_side;
};

Pair MakePair() {
  Pair pair;
  auto listener = ServerSocket::Listen(0, FastOptions());
  EXPECT_TRUE(listener.ok()) << listener.status().message();
  pair.listener = std::move(listener).value();
  auto client = Socket::Connect("127.0.0.1", pair.listener.port(),
                                FastOptions());
  EXPECT_TRUE(client.ok()) << client.status().message();
  pair.client_side = std::move(client).value();
  auto accepted = pair.listener.Accept();
  EXPECT_TRUE(accepted.ok()) << accepted.status().message();
  pair.server_side = std::move(accepted).value();
  return pair;
}

TEST(SocketTransportTest, FramesRoundTrip) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.client_side.SendFrame("hello").ok());
  ASSERT_TRUE(pair.client_side.SendFrame("").ok());  // empty frame is legal
  std::string big(1 << 20, 'x');
  ASSERT_TRUE(pair.client_side.SendFrame(big).ok());

  auto f1 = pair.server_side.RecvFrame();
  auto f2 = pair.server_side.RecvFrame();
  auto f3 = pair.server_side.RecvFrame();
  ASSERT_TRUE(f1.ok() && f2.ok() && f3.ok());
  EXPECT_EQ(f1.value(), "hello");
  EXPECT_EQ(f2.value(), "");
  EXPECT_EQ(f3.value(), big);

  // And back the other way on the same connection.
  ASSERT_TRUE(pair.server_side.SendFrame("reply").ok());
  auto back = pair.client_side.RecvFrame();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "reply");
}

TEST(SocketTransportTest, CleanCloseBetweenFramesIsUnavailable) {
  Pair pair = MakePair();
  pair.client_side.Close();
  auto frame = pair.server_side.RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

/// A raw TCP connection to a loopback port, bypassing Socket's framing —
/// how a test impersonates a peer that violates the protocol or splits
/// its frames differently.  -1 on failure.
int RawConnect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void RawWriteAndClose(uint16_t port, const std::string& bytes) {
  int fd = RawConnect(port);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  close(fd);
}

/// `[u32 length][payload]`, as SendFrame writes it.
std::string Framed(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  return std::string(reinterpret_cast<const char*>(&len), sizeof(len)) +
         payload;
}

TEST(SocketTransportTest, TwoFramesInOneSendComeBackAsTwo) {
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  const std::string bytes = Framed("first") + Framed("second frame");
  std::thread peer([port = listener.value().port(), bytes] {
    RawWriteAndClose(port, bytes);
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto f1 = accepted.value().RecvFrame();
  auto f2 = accepted.value().RecvFrame();
  ASSERT_TRUE(f1.ok() && f2.ok());
  EXPECT_EQ(f1.value(), "first");
  EXPECT_EQ(f2.value(), "second frame");
  // Then the peer's FIN, cleanly at a frame boundary.
  auto eof = accepted.value().RecvFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  peer.join();
}

TEST(SocketTransportTest, FrameSentOneBytePerSendReassembles) {
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  const std::string bytes = Framed("dribbled payload");
  std::thread peer([port = listener.value().port(), bytes] {
    int fd = RawConnect(port);
    ASSERT_GE(fd, 0);
    for (char c : bytes) {
      ASSERT_EQ(send(fd, &c, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close(fd);
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto frame = accepted.value().RecvFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame.value(), "dribbled payload");
  peer.join();
}

TEST(SocketTransportTest, BytesBufferedPastAFrameReadAsStale) {
  // Both frames arrive in one segment, so the first RecvFrame's read
  // takes the second frame into the socket's buffer too: the kernel
  // queue is empty, but the connection is not idle.
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  int fd = RawConnect(listener.value().port());
  ASSERT_GE(fd, 0);
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  Socket& sock = accepted.value();
  EXPECT_FALSE(sock.StaleWhileIdle());
  const std::string bytes = Framed("one") + Framed("two");
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  auto first = sock.RecvFrame();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "one");
  EXPECT_TRUE(sock.StaleWhileIdle());
  auto second = sock.RecvFrame();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), "two");
  EXPECT_FALSE(sock.StaleWhileIdle());  // drained, peer still connected
  close(fd);
}

TEST(SocketTransportTest, EofMidFrameIsDataLoss) {
  // A peer that promises 100 bytes, delivers 3, and hangs up: framing
  // can no longer be trusted, so the error is kDataLoss, not a clean
  // close.
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  uint32_t claim = 100;
  std::string partial(reinterpret_cast<const char*>(&claim), sizeof(claim));
  partial += "abc";
  std::thread lying_client([port = listener.value().port(), partial] {
    RawWriteAndClose(port, partial);
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto frame = accepted.value().RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  lying_client.join();
}

TEST(SocketTransportTest, EofInsideLengthPrefixIsDataLoss) {
  // Even a torn 4-byte header (2 bytes then FIN) is mid-frame.
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  std::thread lying_client([port = listener.value().port()] {
    RawWriteAndClose(port, std::string(2, '\x07'));
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto frame = accepted.value().RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  lying_client.join();
}

TEST(SocketTransportTest, OversizedFrameClaimIsDataLossBeforeAllocation) {
  // The peer claims a 4 GiB frame.  The receiver must refuse from the 4
  // header bytes alone — if it allocated first, this test would OOM
  // instead of failing an expectation.
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  uint32_t huge = 0xFFFFFFFFu;
  std::thread lying_client([port = listener.value().port(), huge] {
    RawWriteAndClose(
        port,
        std::string(reinterpret_cast<const char*>(&huge), sizeof(huge)));
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto frame = accepted.value().RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  lying_client.join();
}

TEST(SocketTransportTest, SendingOverTheCapIsInvalidArgument) {
  TransportOptions tiny = FastOptions();
  tiny.max_frame_bytes = 1024;
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  auto client =
      Socket::Connect("127.0.0.1", listener.value().port(), tiny);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().SendFrame(std::string(4096, 'b')).code(),
            StatusCode::kInvalidArgument);
}

TEST(SocketTransportTest, ReadTimeoutIsDeadlineExceeded) {
  Pair pair = MakePair();
  ASSERT_TRUE(pair.server_side
                  .SetReadTimeout(std::chrono::milliseconds(50))
                  .ok());
  auto frame = pair.server_side.RecvFrame();  // nobody will write
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketTransportTest, LoweredReadTimeoutFiresAfterARepeatedValue) {
  // Re-setting the installed timeout is skipped; a later, lower value
  // must still reach the kernel and bound the wait.
  Pair pair = MakePair();
  ASSERT_TRUE(pair.server_side.SetReadTimeout(FastOptions().read_timeout).ok());
  ASSERT_TRUE(pair.server_side.SetReadTimeout(FastOptions().read_timeout).ok());
  ASSERT_TRUE(
      pair.server_side.SetReadTimeout(std::chrono::milliseconds(40)).ok());
  const auto start = std::chrono::steady_clock::now();
  auto frame = pair.server_side.RecvFrame();  // nobody will write
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, std::chrono::milliseconds(300));
}

TEST(SocketTransportTest, ConnectionRefusedIsUnavailable) {
  // Bind-then-close: the port existed a moment ago and is now free, so
  // connecting to it is refused rather than swallowed by a firewall.
  uint16_t dead_port;
  {
    auto listener = ServerSocket::Listen(0, FastOptions());
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }
  auto sock = Socket::Connect("127.0.0.1", dead_port, FastOptions());
  ASSERT_FALSE(sock.ok());
  EXPECT_EQ(sock.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTransportTest, BadHostLiteralIsInvalidArgument) {
  auto sock = Socket::Connect("not-a-host", 80, FastOptions());
  ASSERT_FALSE(sock.ok());
  EXPECT_EQ(sock.status().code(), StatusCode::kInvalidArgument);
}

TEST(SocketTransportTest, ShutdownUnblocksAccept) {
  auto listener = ServerSocket::Listen(0, FastOptions());
  ASSERT_TRUE(listener.ok());
  ServerSocket server = std::move(listener).value();
  std::thread acceptor([&server] {
    auto accepted = server.Accept();
    EXPECT_FALSE(accepted.ok());
    EXPECT_EQ(accepted.status().code(), StatusCode::kUnavailable);
  });
  // Give Accept a moment to block, then shut down from this thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  acceptor.join();
}

TEST(SocketTransportTest, ShutdownBothWakesBlockedReader) {
  Pair pair = MakePair();
  std::thread reader([&pair] {
    auto frame = pair.server_side.RecvFrame();
    EXPECT_FALSE(frame.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.server_side.ShutdownBoth();
  reader.join();
}

TEST(SocketTransportTest, ErrnoMappingTaxonomy) {
  EXPECT_EQ(StatusFromErrno("x", ECONNREFUSED).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ECONNRESET).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", EPIPE).code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ENETUNREACH).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", EHOSTUNREACH).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ENOTCONN).code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ESHUTDOWN).code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", EAGAIN).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromErrno("x", ETIMEDOUT).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromErrno("x", EBADF).code(), StatusCode::kIOError);
  // Context and strerror text both land in the message.
  EXPECT_NE(StatusFromErrno("during handshake", ECONNRESET)
                .message()
                .find("during handshake"),
            std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace qse
