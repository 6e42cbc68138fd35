#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace basm::net {

namespace {

std::string ErrnoMessage(const std::string& what, int err) {
  return what + ": " + std::strerror(err);
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::Internal(ErrnoMessage("setsockopt(TCP_NODELAY)", errno));
  }
  return Status::Ok();
}

/// Polls `fd` for `events` up to `timeout_ms`; true when ready.
StatusOr<bool> PollFd(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return Status::Internal(ErrnoMessage("poll", errno));
  }
}

}  // namespace

Status Socket::SetNonBlocking(bool nonblocking) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Status::Internal(ErrnoMessage("fcntl(F_GETFL)", errno));
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd_, F_SETFL, flags) != 0) {
    return Status::Internal(ErrnoMessage("fcntl(F_SETFL)", errno));
  }
  return Status::Ok();
}

Status Socket::SetSendBufferBytes(int32_t bytes) {
  if (setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    return Status::Internal(ErrnoMessage("setsockopt(SO_SNDBUF)", errno));
  }
  return Status::Ok();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<TcpConnection> TcpConnection::Connect(const std::string& host,
                                               uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoMessage("socket", errno));
  Socket socket(fd);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address: " + host);
  }
  while (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return Status::Unavailable(
        ErrnoMessage("connect " + host + ":" + std::to_string(port), errno));
  }
  BASM_RETURN_IF_ERROR(SetNoDelay(fd));
  return TcpConnection(std::move(socket));
}

Status TcpConnection::WriteAll(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a peer reset reports EPIPE instead of raising SIGPIPE.
    ssize_t n = ::send(socket_.fd(), p + written, size - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Slow peer (full send buffer) on a non-blocking descriptor: a
        // frame half-written here would desynchronize the stream for every
        // later frame, so park on writability and finish the buffer.
        StatusOr<bool> writable = PollFd(socket_.fd(), POLLOUT, -1);
        if (!writable.ok()) return writable.status();
        continue;
      }
      return Status::Unavailable(ErrnoMessage("send", errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status TcpConnection::ReadAll(void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(socket_.fd(), p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking descriptor used through the blocking wrapper: wait
        // for readability and continue accumulating the buffer.
        StatusOr<bool> readable = PollFd(socket_.fd(), POLLIN, -1);
        if (!readable.ok()) return readable.status();
        continue;
      }
      return Status::Unavailable(ErrnoMessage("recv", errno));
    }
    if (n == 0) {
      if (got == 0) return Status::Cancelled("connection closed by peer");
      return Status::Unavailable("stream truncated mid-frame: got " +
                                 std::to_string(got) + " of " +
                                 std::to_string(size) + " bytes");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<IoChunk> TcpConnection::WriteChunk(const void* data, size_t size) {
  IoChunk chunk;
  while (true) {
    ssize_t n = ::send(socket_.fd(), data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      chunk.bytes = static_cast<size_t>(n);
      return chunk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      chunk.would_block = true;
      return chunk;
    }
    return Status::Unavailable(ErrnoMessage("send", errno));
  }
}

StatusOr<IoChunk> TcpConnection::ReadChunk(void* data, size_t size) {
  IoChunk chunk;
  while (true) {
    ssize_t n = ::recv(socket_.fd(), data, size, 0);
    if (n > 0) {
      chunk.bytes = static_cast<size_t>(n);
      return chunk;
    }
    if (n == 0) {
      chunk.eof = true;
      return chunk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      chunk.would_block = true;
      return chunk;
    }
    return Status::Unavailable(ErrnoMessage("recv", errno));
  }
}

StatusOr<bool> TcpConnection::WaitReadable(int timeout_ms) {
  return PollFd(socket_.fd(), POLLIN, timeout_ms);
}

StatusOr<TcpListener> TcpListener::Bind(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoMessage("socket", errno));
  Socket socket(fd);

  int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return Status::Internal(ErrnoMessage("setsockopt(SO_REUSEADDR)", errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(
        ErrnoMessage("bind port " + std::to_string(port), errno));
  }
  if (::listen(fd, backlog) != 0) {
    return Status::Internal(ErrnoMessage("listen", errno));
  }
  // Recover the ephemeral port when 0 was requested.
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return Status::Internal(ErrnoMessage("getsockname", errno));
  }
  return TcpListener(std::move(socket), ntohs(addr.sin_port));
}

StatusOr<bool> TcpListener::TryAccept(TcpConnection* out) {
  while (true) {
    int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      BASM_RETURN_IF_ERROR(SetNoDelay(fd));
      BASM_RETURN_IF_ERROR(conn.SetNonBlocking(true));
      *out = TcpConnection(std::move(conn));
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return Status::Unavailable(ErrnoMessage("accept", errno));
  }
}

}  // namespace basm::net
