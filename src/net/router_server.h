#ifndef UINDEX_NET_ROUTER_SERVER_H_
#define UINDEX_NET_ROUTER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "db/session.h"
#include "net/admission.h"
#include "net/conn.h"
#include "net/conn_runtime.h"
#include "net/protocol.h"
#include "net/router.h"

namespace uindex {
namespace net {

/// Tuning knobs for a `RouterServer`.
struct RouterServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from `port()`.
  size_t max_connections = 256;
  int io_timeout_ms = 5000;
  int idle_timeout_ms = 120000;

  /// Admission control over scatter-gather queries, mirroring
  /// `ServerOptions`: at most this many `Router::Query` calls in flight at
  /// once (each one fans out across every shard)...
  size_t max_inflight_queries = 16;
  /// ...and at most this many more wait for a slot before being shed with
  /// a typed `kBusy` response.
  size_t max_queued_queries = 64;
};

/// The cluster's client-facing front end: speaks the standard protocol
/// (`kHello`/`kQuery`/`kPing`/`kSessionStats`/`kGoodbye`) so any existing
/// client — `uindex_shell` included — talks to a sharded topology
/// unchanged, while every `kQuery` is executed by scatter-gather through
/// the `Router`.
///
/// Per-connection `Session::Stats` are synthesized from the router's
/// aggregated per-query stats, so `stats` in the shell shows cluster-wide
/// page reads. It runs on the same connection runtime and binary framing
/// as `Server` (net/conn_runtime.h): one thread per connection, and
/// concurrency across connections comes from the router's fan-out pool.
///
/// Shutdown is the runtime's: new connections and new frames are refused,
/// but every in-flight scatter-gather completes AND its response reaches
/// the client socket before `Shutdown` returns. The HTTP gateway's router
/// backend executes through `ExecuteExternal`, under the same
/// `AdmissionGate`, so HTTP and binary clients draw from one budget here
/// too.
class RouterServer {
 public:
  /// `queries_*` count every admitted scatter-gather, binary or HTTP;
  /// `busy_rejected` (ConnCounters) counts cap rejects and sheds on both.
  struct Counters : ConnCounters {
    std::atomic<uint64_t> queries_ok{0};
    std::atomic<uint64_t> queries_failed{0};
    std::atomic<uint64_t> protocol_errors{0};
  };

  /// Binds, listens, and starts the listener thread. `router` must outlive
  /// the server.
  static Result<std::unique_ptr<RouterServer>> Start(
      Router* router, RouterServerOptions options);

  /// Graceful shutdown (idempotent); in-flight queries finish and their
  /// responses are delivered before teardown.
  void Shutdown() { runtime_.Shutdown(); }

  ~RouterServer() { Shutdown(); }

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  uint16_t port() const { return runtime_.port(); }
  const Counters& counters() const { return counters_; }
  size_t active_connections() const {
    return counters_.active_connections.load(std::memory_order_relaxed);
  }

  /// The router process's admission budget (shared with the HTTP gateway).
  AdmissionGate& admission() { return admission_; }
  const AdmissionGate& admission() const { return admission_; }

  Router* router() const { return router_; }

  /// Runs one scatter-gather for a non-binary front end (the HTTP
  /// gateway) under the same admission gate and counters as `kQuery`.
  /// A `ResourceExhausted` beginning with "busy:" is a shed — retryable.
  Result<Router::QueryOutcome> ExecuteExternal(const std::string& oql);

  /// True once a graceful shutdown has begun (new work is being refused).
  bool draining() const { return runtime_.draining(); }

 private:
  RouterServer(Router* router, RouterServerOptions options);

  // Answers kQuery (any other op is a typed NotSupported); false closes.
  bool HandleRequest(Conn* conn, Session::Stats* stats,
                     const Request& request);
  // Runs an admitted scatter-gather, releases its slot, counts it.
  Result<Router::QueryOutcome> QueryAdmitted(const std::string& oql);

  Router* router_;
  RouterServerOptions options_;

  // One scatter-gather budget for every front end (net/admission.h); the
  // HTTP gateway reaches it through `ExecuteExternal`.
  AdmissionGate admission_;

  Counters counters_;
  ConnRuntime runtime_;  // Last: its threads use everything above.
};

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_ROUTER_SERVER_H_
