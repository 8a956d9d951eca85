#include "net/conn.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/framing.h"

namespace uindex {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::ResourceExhausted(std::string(what) + ": " +
                                   std::strerror(errno));
}

Status PollFd(int fd, short events, int timeout_ms, const char* what) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return Status::OK();
    if (n == 0) {
      return Status::ResourceExhausted(std::string(what) + " timeout");
    }
    if (errno == EINTR) continue;
    return Errno(what);
  }
}

}  // namespace

Socket::Socket(int fd) : fd_(fd) {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The timeout logic polls, so the descriptor must be non-blocking no
  // matter how it was produced (Dial already is; accepted fds may not be).
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Socket::~Socket() {
  if (fd_ >= 0) ::close(fd_);
}

void Socket::ShutdownBoth() { ::shutdown(fd_, SHUT_RDWR); }

Status Socket::Wait(short events, int timeout_ms, const char* what) {
  return PollFd(fd_, events, timeout_ms, what);
}

Status Socket::SendAll(const char* data, size_t n, int timeout_ms) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UINDEX_RETURN_IF_ERROR(Wait(POLLOUT, timeout_ms, "write"));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status Socket::RecvSome(std::string* buffer, int timeout_ms, bool* eof) {
  *eof = false;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r > 0) {
      buffer->append(chunk, static_cast<size_t>(r));
      return Status::OK();
    }
    if (r == 0) {
      *eof = true;
      return Status::OK();
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      UINDEX_RETURN_IF_ERROR(Wait(POLLIN, timeout_ms, "read"));
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

Result<int> Socket::Dial(const std::string& host, uint16_t port,
                         int connect_timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_text = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::InvalidArgument("cannot resolve " + host);
  }
  Status last = Status::ResourceExhausted("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd =
        ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0 &&
        errno != EINPROGRESS) {
      last = Errno("connect");
      ::close(fd);
      continue;
    }
    Status wait = PollFd(fd, POLLOUT, connect_timeout_ms, "connect");
    if (!wait.ok()) {
      last = std::move(wait);
      ::close(fd);
      continue;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      last = Status::ResourceExhausted(std::string("connect: ") +
                                       std::strerror(err != 0 ? err : errno));
      ::close(fd);
      continue;
    }
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  return last;
}

Result<std::unique_ptr<Conn>> Conn::Dial(const std::string& host,
                                         uint16_t port,
                                         int connect_timeout_ms) {
  Result<int> fd = Socket::Dial(host, port, connect_timeout_ms);
  UINDEX_RETURN_IF_ERROR(fd.status());
  return std::make_unique<Conn>(fd.value());
}

Status Conn::WriteFrame(const Slice& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(payload, &frame);
  return SendAll(frame.data(), frame.size(), io_timeout_ms_);
}

Status Conn::ReadFully(char* buf, size_t n, int first_timeout_ms,
                       bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t got = 0;
  int timeout = first_timeout_ms;
  while (got < n) {
    const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      timeout = io_timeout_ms_;
      continue;
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::Corruption("peer closed mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      UINDEX_RETURN_IF_ERROR(Wait(POLLIN, timeout, "read"));
      timeout = io_timeout_ms_;
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

Result<ReadOutcome> Conn::ReadFrame(std::string* payload, uint32_t max_len,
                                    int idle_timeout_ms) {
  char header_bytes[kFrameHeaderSize];
  // The first byte of the header is bounded by the idle window; once any
  // byte arrives the peer committed to a frame and the io timeout applies.
  bool clean_eof = false;
  size_t got = 0;
  {
    const ssize_t r = ::recv(fd_, header_bytes, sizeof(header_bytes), 0);
    if (r > 0) {
      got = static_cast<size_t>(r);
    } else if (r == 0) {
      return ReadOutcome::kClosed;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status wait = Wait(POLLIN, idle_timeout_ms, "read");
      if (!wait.ok()) return ReadOutcome::kIdleTimeout;
    } else if (errno != EINTR) {
      return Errno("recv");
    }
  }
  UINDEX_RETURN_IF_ERROR(ReadFully(header_bytes + got,
                                   sizeof(header_bytes) - got,
                                   io_timeout_ms_, got == 0 ? &clean_eof
                                                            : nullptr));
  if (clean_eof) return ReadOutcome::kClosed;
  const FrameHeader header = DecodeFrameHeader(header_bytes);
  UINDEX_RETURN_IF_ERROR(CheckFrameLength(header, max_len));
  payload->resize(header.len);
  UINDEX_RETURN_IF_ERROR(
      ReadFully(payload->data(), header.len, io_timeout_ms_, nullptr));
  UINDEX_RETURN_IF_ERROR(VerifyFramePayload(header, Slice(*payload)));
  return ReadOutcome::kFrame;
}

}  // namespace net
}  // namespace uindex
