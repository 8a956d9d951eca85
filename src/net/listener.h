#ifndef UINDEX_NET_LISTENER_H_
#define UINDEX_NET_LISTENER_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace uindex {
namespace net {

/// A bound, listening TCP socket — the bind/listen/getsockname dance behind
/// the connection runtime (net/conn_runtime.h) that every front end runs
/// on. Port 0 binds ephemeral; `port()` then
/// reports the kernel's choice (the smoke scripts parse it from each
/// binary's "listening on" line, so parallel ctest runs never collide).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept { *this = std::move(other); }
  Listener& operator=(Listener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
      other.port_ = 0;
    }
    return *this;
  }

  /// Resolves `host`, binds `host:port` (SO_REUSEADDR, non-blocking
  /// accept socket), and listens with a backlog of 128.
  Status Open(const std::string& host, uint16_t port);

  /// Waits up to `timeout_ms` for a connection and accepts one. Returns
  /// the connected fd, or -1 when the wait timed out / nothing acceptable
  /// arrived (the runtime's accept loop polls it and re-checks its stop
  /// flag).
  int AcceptOnce(int timeout_ms);

  void Close();

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_LISTENER_H_
