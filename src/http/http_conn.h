#ifndef UINDEX_HTTP_HTTP_CONN_H_
#define UINDEX_HTTP_HTTP_CONN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/conn.h"
#include "util/status.h"

namespace uindex {
namespace http {

/// One parsed HTTP/1.1 request. Header names are lowercased at parse time
/// (HTTP headers are case-insensitive; lowercasing once keeps every lookup
/// a plain string compare).
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (verbatim, case-sensitive).
  std::string target;   ///< Request target, e.g. "/v1/query".
  bool http_1_0 = false;  ///< Peer spoke HTTP/1.0 (default close).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Whether the connection survives this exchange under the peer's
  /// `Connection` header and HTTP version defaults.
  bool keep_alive = true;

  const std::string* FindHeader(const std::string& lowercase_name) const {
    for (const auto& [name, value] : headers) {
      if (name == lowercase_name) return &value;
    }
    return nullptr;
  }
};

/// Bounds on what a peer may send. Every limit violation is a TYPED
/// rejection (the http_status below), never a silent close — the hostility
/// suite in tests/http_test.cc pins each one.
struct HttpConnLimits {
  size_t max_header_bytes = 8 * 1024;  ///< Request line + headers. → 431
  size_t max_header_count = 64;        ///< → 431
  size_t max_body_bytes = 1 << 20;     ///< Content-Length ceiling. → 413
  int io_timeout_ms = 5000;      ///< Mid-request stall (slow loris). → 408
  int idle_timeout_ms = 60000;   ///< Between requests on keep-alive.
};

/// A blocking HTTP/1.1 server-side connection: Content-Length framing,
/// keep-alive, bounded everything. Owns the fd (`net::Socket`). Mirrors
/// `net::Conn`'s robustness contract — a malformed or hostile request
/// poisons only this connection, and the poisoning is announced with a
/// typed 4xx first.
///
/// Not thread-safe; one connection thread drives it (the server shape).
class HttpConn : public net::Socket {
 public:
  enum class Outcome {
    kRequest,      ///< `*request` holds one complete request.
    kClosed,       ///< Peer closed cleanly between requests.
    kIdleTimeout,  ///< Nothing arrived within the idle window.
    kBadRequest,   ///< Typed rejection; `*http_status` + `*error` say why.
  };

  HttpConn(int fd, HttpConnLimits limits);

  /// Reads and parses one request. On `kBadRequest`, `*http_status` is the
  /// response code to send (400/408/413/431/501) and `*error` a one-line
  /// reason; the caller writes the error response and closes.
  Outcome ReadRequest(HttpRequest* request, int* http_status,
                      std::string* error);

  /// Writes one response. `body` is sent verbatim with Content-Length
  /// framing; `keep_alive` controls the `Connection` header.
  Status WriteResponse(int status, const std::string& content_type,
                       const std::string& body, bool keep_alive);

 private:
  HttpConnLimits limits_;
  std::string buffer_;  ///< Unconsumed bytes (tolerates pipelined peers).
};

/// The reason phrase for every status code the gateway emits.
const char* StatusReason(int status);

}  // namespace http
}  // namespace uindex

#endif  // UINDEX_HTTP_HTTP_CONN_H_
