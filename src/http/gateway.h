#ifndef UINDEX_HTTP_GATEWAY_H_
#define UINDEX_HTTP_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "http/backend.h"
#include "http/http_conn.h"
#include "net/conn_runtime.h"
#include "util/status.h"

namespace uindex {
namespace http {

/// Tuning knobs for an `HttpGateway`.
struct GatewayOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from `port()`.
  size_t max_connections = 128;
  HttpConnLimits limits;  ///< Header/body bounds and timeouts.
};

/// The HTTP/JSON front end (DESIGN.md "HTTP gateway & SLO harness"):
///
///   POST /v1/query  {"oql": "..."}  → rows/count/plan + per-query IoStats
///   POST /v1/dml    {"op": "..."}   → create_object / set_attr / delete_object
///   GET  /healthz                   → 200 ok / 503 draining
///   GET  /metrics                   → text exposition of every counter
///
/// The gateway does NOT own execution: every query and mutation goes
/// through a `GatewayBackend`, which routes it onto the binary server's
/// worker pool under the binary server's admission gate — one budget for
/// both protocols, by construction. It runs on the same connection runtime
/// as `net::Server` (net/conn_runtime.h): one accept thread, one thread per
/// connection, keep-alive until the peer closes, errors poison only the
/// offending connection, and a drain delivers every request already read.
///
/// Error mapping (kept 1:1 with Status codes so clients see the same
/// taxonomy binary clients do):
///   InvalidArgument/Corruption → 400   (body carries caret diagnostics)
///   NotFound                   → 400
///   busy: admission shed       → 429
///   shutting down, Unavailable → 503
///   NotSupported               → 501
///   anything else              → 500
class HttpGateway {
 public:
  /// `busy_rejected` (ConnCounters) counts over-cap 503s; an admission
  /// shed is counted by the gate's owner, and here as `requests_shed`.
  struct Counters : net::ConnCounters {
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> requests_ok{0};
    std::atomic<uint64_t> requests_client_error{0};
    std::atomic<uint64_t> requests_server_error{0};
    std::atomic<uint64_t> requests_shed{0};     ///< 429s (admission).
    std::atomic<uint64_t> malformed_requests{0};  ///< HTTP-layer 4xx.
  };

  /// Binds, listens, and starts the accept thread. `backend` must outlive
  /// the gateway.
  static Result<std::unique_ptr<HttpGateway>> Start(GatewayBackend* backend,
                                                    GatewayOptions options);

  /// Graceful shutdown (idempotent): stop accepting, refuse new requests
  /// with 503, finish in-flight requests and write their responses, close
  /// every connection, join every thread. The underlying backend server's
  /// own drain is separate (and usually runs after).
  void Shutdown() { runtime_.Shutdown(); }

  ~HttpGateway() { Shutdown(); }

  HttpGateway(const HttpGateway&) = delete;
  HttpGateway& operator=(const HttpGateway&) = delete;

  uint16_t port() const { return runtime_.port(); }
  const Counters& counters() const { return counters_; }
  size_t active_connections() const {
    return counters_.active_connections.load(std::memory_order_relaxed);
  }

 private:
  HttpGateway(GatewayBackend* backend, GatewayOptions options);

  void ServeConnection(HttpConn* conn);
  // Routes one request; returns false when the connection should close.
  bool Dispatch(HttpConn* conn, const HttpRequest& request);
  bool HandleQuery(HttpConn* conn, const HttpRequest& request);
  bool HandleDml(HttpConn* conn, const HttpRequest& request);
  bool HandleHealthz(HttpConn* conn, const HttpRequest& request);
  bool HandleMetrics(HttpConn* conn, const HttpRequest& request);
  // Writes a JSON error body; tallies the right counter for `status`.
  bool WriteError(HttpConn* conn, int status, const std::string& message,
                  bool keep_alive);

  GatewayBackend* backend_;
  GatewayOptions options_;

  // Requests completed in the last few one-second buckets, for the
  // /metrics QPS gauge (coarse by design; the SLO harness measures real
  // latency itself).
  std::mutex qps_mu_;
  static constexpr int kQpsWindowSecs = 5;
  uint64_t qps_bucket_start_ = 0;  ///< steady-clock seconds.
  uint64_t qps_buckets_[kQpsWindowSecs] = {0};
  void RecordRequestForQps();
  double QpsOverWindow();

  Counters counters_;
  net::ConnRuntime runtime_;  // Last: its threads use everything above.
};

}  // namespace http
}  // namespace uindex

#endif  // UINDEX_HTTP_GATEWAY_H_
