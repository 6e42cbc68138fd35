#ifndef BASM_NET_SOCKET_H_
#define BASM_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace basm::net {

/// Move-only RAII owner of a POSIX socket descriptor. All failures surface
/// as Status (never errno leaks past this layer); EINTR is retried inside.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Toggles O_NONBLOCK. The event-loop server runs every socket it owns
  /// non-blocking; the blocking client keeps its connection blocking.
  [[nodiscard]] Status SetNonBlocking(bool nonblocking);

  /// Clamps the kernel send buffer (SO_SNDBUF). Serving uses the OS
  /// default; the backpressure tests shrink it so a slow reader fills the
  /// kernel's slack deterministically instead of after ~100KB.
  [[nodiscard]] Status SetSendBufferBytes(int32_t bytes);

  /// Closes the descriptor (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Outcome of one non-blocking transfer attempt: `bytes` moved (possibly
/// zero), or the reason nothing moved. Exactly one of the flags can be set.
struct IoChunk {
  size_t bytes = 0;
  /// The socket would have blocked (EAGAIN): re-arm readiness and retry.
  bool would_block = false;
  /// The peer closed its end (reads only).
  bool eof = false;
};

/// Full-buffer transfers over a connected TCP socket, the framing substrate
/// of the wire protocol (a frame is one WriteAll of header + payload, one
/// ReadAll of the header, one ReadAll of the payload). ReadChunk/WriteChunk
/// are the non-blocking single-attempt primitives the event-loop tier
/// builds its per-connection state machines on.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(Socket socket) : socket_(std::move(socket)) {}

  /// Connects to host:port (dotted-quad host, e.g. loopback "127.0.0.1").
  /// TCP_NODELAY is set: frames are small and latency-bound.
  [[nodiscard]] static StatusOr<TcpConnection> Connect(
      const std::string& host, uint16_t port);

  bool valid() const { return socket_.valid(); }

  /// Writes exactly `size` bytes or fails. A peer reset surfaces as
  /// UNAVAILABLE. A short write (slow peer, full send buffer, or a
  /// non-blocking descriptor) is continued, polling for writability when
  /// the socket would block — the frame is delivered whole or the call
  /// fails, never left half-written to corrupt the stream framing.
  [[nodiscard]] Status WriteAll(const void* data, size_t size);

  /// Reads exactly `size` bytes or fails. A clean peer close before the
  /// first byte is CANCELLED ("connection closed"); mid-buffer EOF is
  /// UNAVAILABLE (truncated stream). Like WriteAll, a would-block from a
  /// non-blocking descriptor polls for readability and continues.
  [[nodiscard]] Status ReadAll(void* data, size_t size);

  /// One non-blocking write attempt: moves whatever the send buffer takes
  /// right now and reports `would_block` instead of parking. Never polls.
  [[nodiscard]] StatusOr<IoChunk> WriteChunk(const void* data, size_t size);

  /// One non-blocking read attempt; `eof` reports a closed peer, and a
  /// would-block returns zero bytes instead of parking. Never polls.
  [[nodiscard]] StatusOr<IoChunk> ReadChunk(void* data, size_t size);

  /// See Socket::SetNonBlocking.
  [[nodiscard]] Status SetNonBlocking(bool nonblocking) {
    return socket_.SetNonBlocking(nonblocking);
  }

  /// See Socket::SetSendBufferBytes.
  [[nodiscard]] Status SetSendBufferBytes(int32_t bytes) {
    return socket_.SetSendBufferBytes(bytes);
  }

  /// Raw descriptor for readiness registration (epoll). Owned here.
  int fd() const { return socket_.fd(); }

  /// Blocks up to `timeout_ms` for readability. Returns true when a read
  /// would not block (data or EOF pending), false on timeout. Lets a client
  /// bound its wait for a response instead of parking forever in ReadAll.
  [[nodiscard]] StatusOr<bool> WaitReadable(int timeout_ms);

 private:
  Socket socket_;
};

/// Listening socket bound to 127.0.0.1. Port 0 binds an ephemeral port;
/// `port()` reports the one actually bound (how the tests and the loopback
/// bench avoid port collisions).
class TcpListener {
 public:
  TcpListener() = default;

  [[nodiscard]] static StatusOr<TcpListener> Bind(uint16_t port,
                                                  int backlog = 128);

  bool valid() const { return socket_.valid(); }
  uint16_t port() const { return port_; }

  /// Non-blocking accept for the event-loop tier: returns false when no
  /// connection is pending (the listener must be non-blocking), true with
  /// `*out` filled otherwise. The accepted socket comes back non-blocking
  /// with TCP_NODELAY set, ready for epoll registration.
  [[nodiscard]] StatusOr<bool> TryAccept(TcpConnection* out);

  /// See Socket::SetNonBlocking.
  [[nodiscard]] Status SetNonBlocking(bool nonblocking) {
    return socket_.SetNonBlocking(nonblocking);
  }

  /// Raw descriptor for readiness registration (epoll). Owned here.
  int fd() const { return socket_.fd(); }

 private:
  TcpListener(Socket socket, uint16_t port)
      : socket_(std::move(socket)), port_(port) {}

  Socket socket_;
  uint16_t port_ = 0;
};

}  // namespace basm::net

#endif  // BASM_NET_SOCKET_H_
