#ifndef UINDEX_NET_CONN_H_
#define UINDEX_NET_CONN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace uindex {
namespace net {

/// Outcome of `Conn::ReadFrame` when no transport or framing error
/// occurred.
enum class ReadOutcome {
  kFrame,        ///< One verified frame is in `*payload`.
  kClosed,       ///< Peer closed cleanly at a frame boundary.
  kIdleTimeout,  ///< No first byte arrived within the idle window.
};

/// An owned, connected TCP socket: non-blocking (every wait is a bounded
/// `poll`) with TCP_NODELAY (each framing here is request/response with
/// small messages); the fd is closed on destruction. The base of both
/// framings' connections — `Conn` and `http::HttpConn` on the server side,
/// `Conn` and `http::HttpClient` on the client side.
class Socket {
 public:
  /// Takes ownership of a connected socket.
  explicit Socket(int fd);
  virtual ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to `host:port` (numeric or resolvable host) within
  /// `connect_timeout_ms`; returns the connected fd.
  static Result<int> Dial(const std::string& host, uint16_t port,
                          int connect_timeout_ms);

  /// Half-closes both directions, unblocking a thread parked in a read (it
  /// observes EOF or an error on its next wait). The one cross-thread entry
  /// point — the server runtime's shutdown uses it — and safe to call more
  /// than once.
  void ShutdownBoth();

  int fd() const { return fd_; }

 protected:
  /// Waits until the fd has `events` (POLLIN/POLLOUT) or `timeout_ms`
  /// passes: OK, or ResourceExhausted("<what> timeout" / errno text).
  Status Wait(short events, int timeout_ms, const char* what);

  /// Sends all `n` bytes, each stall bounded by `timeout_ms`; never raises
  /// SIGPIPE.
  Status SendAll(const char* data, size_t n, int timeout_ms);

  /// Appends whatever arrives next (up to 4 KiB) to `*buffer`, waiting up
  /// to `timeout_ms`; `*eof` is set when the peer closed instead.
  Status RecvSome(std::string* buffer, int timeout_ms, bool* eof);

  const int fd_;
};

/// One TCP connection speaking the framed wire protocol.
///
/// A `Conn` provides blocking, timeout-bounded frame I/O. It is used by
/// exactly one thread at a time for reads and one for writes (the server's
/// connection thread does both; `ShutdownBoth` is the only cross-thread
/// entry point, used to unblock a reader during server shutdown).
///
/// Timeout model: `ReadFrame` waits up to `idle_timeout_ms` for the first
/// byte of a frame (an idle connection is not an error — the server loops),
/// then up to `io_timeout_ms` for every subsequent chunk; a stall mid-frame
/// is `ResourceExhausted` and poisons the connection. Writes are bounded by
/// `io_timeout_ms` per chunk. CRC mismatches and frames above `max_len`
/// are `Corruption` — the shared framing policy (util/framing.h).
class Conn : public Socket {
 public:
  explicit Conn(int fd) : Socket(fd) {}

  /// Connects to `host:port` within `connect_timeout_ms`.
  static Result<std::unique_ptr<Conn>> Dial(const std::string& host,
                                            uint16_t port,
                                            int connect_timeout_ms);

  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }
  int io_timeout_ms() const { return io_timeout_ms_; }

  /// Writes one `[len][crc][payload]` frame.
  Status WriteFrame(const Slice& payload);

  /// Reads one frame into `*payload`, enforcing `max_len` and the CRC.
  /// Errors: `Corruption` (oversized header, CRC mismatch, torn frame —
  /// peer closed mid-frame), `ResourceExhausted` (mid-frame stall or I/O
  /// error).
  Result<ReadOutcome> ReadFrame(std::string* payload, uint32_t max_len,
                                int idle_timeout_ms);

 private:
  // Reads exactly `n` bytes into `buf`; first byte bounded by
  // `first_timeout_ms` (pass io_timeout_ms_ for mid-frame reads).
  // `*clean_eof` is set when EOF arrives before any byte.
  Status ReadFully(char* buf, size_t n, int first_timeout_ms,
                   bool* clean_eof);

  int io_timeout_ms_ = 5000;
};

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_CONN_H_
