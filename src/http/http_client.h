#ifndef UINDEX_HTTP_HTTP_CLIENT_H_
#define UINDEX_HTTP_HTTP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/conn.h"
#include "util/status.h"

namespace uindex {
namespace http {

/// A minimal blocking HTTP/1.1 client with keep-alive: one connection,
/// one request at a time, Content-Length framing only (all the gateway
/// emits). Serves the SLO harness, the hostility tests, and the
/// `http_probe` smoke binary — no curl dependency anywhere.
class HttpClient : public net::Socket {
 public:
  struct Response {
    int status = 0;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;  // lowercased

    const std::string* FindHeader(const std::string& lowercase_name) const {
      for (const auto& [name, value] : headers) {
        if (name == lowercase_name) return &value;
      }
      return nullptr;
    }
  };

  static Result<std::unique_ptr<HttpClient>> Connect(const std::string& host,
                                                     uint16_t port,
                                                     int timeout_ms = 5000);

  Result<Response> Get(const std::string& path);
  Result<Response> Post(const std::string& path, const std::string& body,
                        const std::string& content_type = "application/json");

  /// Sends raw bytes verbatim — the hostility tests speak malformed HTTP
  /// through the same connection plumbing.
  Status SendRaw(const std::string& bytes);

  /// Reads one response after `SendRaw` (or checks how the server reacted
  /// to garbage).
  Result<Response> ReadResponse();

  /// Half-closes the write side (`shutdown(SHUT_WR)`) — the hostility
  /// tests use it to truncate a Content-Length body mid-stream while the
  /// read side stays open for the server's typed 400.
  void ShutdownWrite();

 private:
  HttpClient(int fd, int timeout_ms)
      : net::Socket(fd), timeout_ms_(timeout_ms) {}

  Result<Response> RoundTrip(const std::string& request);

  int timeout_ms_;
  std::string buffer_;
};

}  // namespace http
}  // namespace uindex

#endif  // UINDEX_HTTP_HTTP_CLIENT_H_
