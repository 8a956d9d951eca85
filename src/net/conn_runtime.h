#ifndef UINDEX_NET_CONN_RUNTIME_H_
#define UINDEX_NET_CONN_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "db/session.h"
#include "net/admission.h"
#include "net/conn.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "util/status.h"

namespace uindex {
namespace net {

/// The connection counters every front end keeps; the runtime maintains
/// them.
struct ConnCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> active_connections{0};
  /// Typed "busy" answers: connections over the cap, plus the requests the
  /// front end's own admission gate shed (whichever protocol carried them).
  std::atomic<uint64_t> busy_rejected{0};
};

/// The one listener/connection/drain runtime behind every front end
/// (`Server`, `RouterServer`, `http::HttpGateway`); a front end plugs in
/// only its framing. Thread-per-connection: one accept thread, one thread
/// per connection; a connection past `max_connections` is answered with
/// the framing's typed "busy" and closed.
///
/// Graceful shutdown guarantees delivery: (1) stop accepting and refuse new
/// requests (`BeginRequest` turns false and the framing answers "shutting
/// down"), waking the queued waiters of the front end's admission gate;
/// (2) wait until every request already read has had its response written
/// (`EndRequest`), then until the gate drained — which also covers requests
/// another front end executes through it; (3) `ShutdownBoth` every
/// connection and join its thread. A connection's socket is destroyed only
/// when it is reaped, after its thread joined, so shutdown never hits a
/// descriptor the process may have recycled.
class ConnRuntime {
 public:
  /// A front end's framing: `wrap` turns an accepted fd into the framing's
  /// connection; `reject` answers one over the cap (it is closed after);
  /// `serve` runs on the connection's own thread until it should close.
  struct Framing {
    std::function<std::unique_ptr<Socket>(int fd)> wrap;
    std::function<void(Socket*)> reject;
    std::function<void(Socket*)> serve;
  };

  /// `name` ("server", "router", "gateway") starts the drain refusal.
  /// `gate` is the admission budget this front end owns, or null for one
  /// that executes through another front end's. `counters` and `gate` must
  /// outlive the runtime.
  ConnRuntime(std::string name, size_t max_connections,
              ConnCounters* counters, AdmissionGate* gate, Framing framing);
  ~ConnRuntime() { Shutdown(); }

  ConnRuntime(const ConnRuntime&) = delete;
  ConnRuntime& operator=(const ConnRuntime&) = delete;

  /// Binds `host:port` (0 = ephemeral) and starts the accept thread.
  Status Start(const std::string& host, uint16_t port);

  /// The graceful shutdown above (idempotent).
  void Shutdown();

  uint16_t port() const { return port_; }
  bool draining() const { return stopping_.load(std::memory_order_acquire); }

  /// Brackets one request read in full. True: serve it, write its
  /// response, then call `EndRequest`. False: a drain has begun — answer
  /// with `ShuttingDown()` in the framing's form and close.
  bool BeginRequest();
  void EndRequest();

  /// The typed drain refusal, ResourceExhausted("<name> shutting down").
  Status ShuttingDown() const;

  /// Takes a slot on the gate. OK: the caller holds it and releases it
  /// once its request has executed. A shed (`IsShed`) is counted in
  /// `busy_rejected`; during a drain the result is `ShuttingDown()`.
  Status Admit();

 private:
  struct Connection {
    std::unique_ptr<Socket> socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  // Joins and destroys finished connections (every one when `all`).
  void Reap(bool all);

  const std::string name_;
  const size_t max_connections_;
  ConnCounters* const counters_;
  AdmissionGate* const gate_;
  const Framing framing_;

  Listener listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  // `stopping_` flips and `inflight_` (requests read but not yet answered)
  // moves under `mu_`, so no request can slip in after the drain began.
  std::mutex mu_;
  std::condition_variable drained_;
  std::atomic<bool> stopping_{false};
  size_t inflight_ = 0;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
  std::once_flag shutdown_once_;
};

/// The binary protocol's framing: `Conn`s with `io_timeout_ms`, a
/// connection over the cap answered `kBusy`, and `serve` per connection.
ConnRuntime::Framing WireFraming(int io_timeout_ms,
                                 std::function<void(Conn*)> serve);

/// The binary protocol's connection loop, shared by `Server` and
/// `RouterServer`. A framing error poisons only this connection
/// (best-effort `kError`, counted in `protocol_errors`); a frame read once
/// `runtime` drains is refused with its `ShuttingDown()` status;
/// kHello/kPing/kSessionStats/kGoodbye are answered here (the stats from
/// `stats`); every other op goes to `dispatch`, which writes the response
/// and returns false to close.
void ServeWire(ConnRuntime* runtime, Conn* conn, int idle_timeout_ms,
               const Session::Stats& stats,
               std::atomic<uint64_t>& protocol_errors,
               const std::function<bool(const Request&)>& dispatch);

/// The response frame for a failed request: `kBusy` for a shed, `kError`
/// carrying the status otherwise.
std::string EncodeFailure(const Status& status);

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_CONN_RUNTIME_H_
