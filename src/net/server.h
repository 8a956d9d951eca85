#ifndef UINDEX_NET_SERVER_H_
#define UINDEX_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "db/database.h"
#include "db/session.h"
#include "exec/thread_pool.h"
#include "net/admission.h"
#include "net/conn.h"
#include "net/conn_runtime.h"
#include "net/protocol.h"
#include "net/shard_map.h"

namespace uindex {
namespace net {

/// Tuning knobs for a `Server`.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from `port()`.

  /// Workers on the query pool when the server owns it (a borrowed pool —
  /// see `Server::Start` — ignores this).
  size_t worker_threads = 4;

  /// Admission control: at most this many queries execute at once
  /// (0 = the pool's worker count)...
  size_t max_inflight_queries = 0;
  /// ...and at most this many more wait for a slot; beyond that the query
  /// is shed with a typed `kBusy` response.
  size_t max_queued_queries = 64;

  /// Connections above this cap are answered with `kBusy` and closed.
  size_t max_connections = 256;

  /// Per-connection timeouts: `io_timeout_ms` bounds every mid-frame read
  /// and every write (a stall poisons the connection);
  /// `idle_timeout_ms` is how long a connection may sit between requests
  /// before the server drops it.
  int io_timeout_ms = 5000;
  int idle_timeout_ms = 120000;
};

/// A multi-threaded TCP server putting one `Database` behind the wire
/// protocol (net/protocol.h).
///
/// Threading model: the shared connection runtime (net/conn_runtime.h) —
/// one accept thread, and every connection gets its own thread and its own
/// `db::Session` (sessions are cheap and not thread-safe — one per client
/// is the intended shape). Query execution is submitted to the shared
/// `exec::ThreadPool`, bounded by admission control; the connection thread
/// blocks on the result future and streams the response. Sessions are
/// deliberately serial (no ExecutionContext): parallelism comes from many
/// queries in flight across pool workers, and a query that itself sharded
/// onto the same pool could deadlock a saturated pool.
///
/// Robustness: malformed frames, CRC mismatches, oversized requests, and
/// mid-frame stalls poison only the offending connection (best-effort
/// `kError`, then close); admission overflow is shed with `kBusy`;
/// `Shutdown` refuses new frames, drains in-flight queries (their
/// responses are delivered — HTTP ones included, through the shared
/// gate), tears down connections, and only then returns — so the caller
/// can safely destroy the database afterwards.
class Server {
 public:
  /// Observability counters (tests and the server binary read these).
  /// `queries_ok`/`queries_failed` count every admitted statement, binary
  /// or external; `busy_rejected` (ConnCounters) counts cap rejects and
  /// sheds on either protocol.
  struct Counters : ConnCounters {
    std::atomic<uint64_t> queries_ok{0};
    std::atomic<uint64_t> queries_failed{0};
    std::atomic<uint64_t> protocol_errors{0};
    /// Sub-queries rejected for carrying a ShardMap version other than the
    /// installed one (the split/rebalance fence). One that ran and was
    /// discarded by the post-execution check also counts in `queries_ok`.
    std::atomic<uint64_t> stale_rejected{0};
  };

  /// Binds, listens, and starts the listener thread. `db` must outlive the
  /// server (non-const because `kInstallShard` installs the database's
  /// served code range). A non-null `shared_pool` is borrowed for query
  /// execution (and must outlive the server); otherwise the server owns a
  /// pool of `options.worker_threads` workers.
  static Result<std::unique_ptr<Server>> Start(
      Database* db, ServerOptions options,
      exec::ThreadPool* shared_pool = nullptr);

  /// Graceful shutdown (idempotent): stop accepting, refuse new frames,
  /// drain in-flight queries, tear down connections, join every thread.
  void Shutdown() { runtime_.Shutdown(); }

  ~Server() { Shutdown(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (useful with `options.port == 0`).
  uint16_t port() const { return runtime_.port(); }

  /// Installs `map` with this server as entry `self_index` — the local
  /// equivalent of a `kInstallShard` frame (the server binary uses it to
  /// adopt a map file at startup). Validates the map, refuses version
  /// rollback (`StaleVersion`), and installs the entry's code range as the
  /// database's served range.
  Status InstallShard(const ShardMap& map, uint32_t self_index);

  /// Executes one OQL statement on behalf of a non-binary front end (the
  /// HTTP gateway), through the SAME admission gate and worker pool the
  /// wire protocol uses — an HTTP request and a binary frame compete for
  /// one budget, and a shed on either side lands in `admission()`'s shed
  /// counter. `session` is the caller's accounting scope (one per request
  /// or per connection; not thread-safe). A `ResourceExhausted` beginning
  /// with "busy:" is an admission shed — retryable.
  Result<Database::OqlResult> ExecuteExternal(Session* session,
                                              const std::string& oql);

  /// `ExecuteExternal` for a mutation (the gateway's /v1/dml): the closure
  /// runs on the worker pool under the shared admission budget. The
  /// closure must be self-contained — it is executed exactly once.
  Status ExecuteExternalDml(const std::function<Status()>& dml);

  const Counters& counters() const { return counters_; }

  /// The process-wide admission budget (shared with the HTTP gateway).
  AdmissionGate& admission() { return admission_; }
  const AdmissionGate& admission() const { return admission_; }

  Database* db() const { return db_; }

  /// Installed shard identity, for observability (/metrics).
  struct ShardInfo {
    bool active = false;
    uint64_t version = 0;
    uint32_t self_index = 0;
  };
  ShardInfo shard_info() const;

  /// True once a graceful shutdown has begun (new work is being refused).
  bool draining() const { return runtime_.draining(); }

  /// Live connection count right now (drops to 0 after Shutdown).
  size_t active_connections() const {
    return counters_.active_connections.load(std::memory_order_relaxed);
  }

 private:
  Server(Database* db, ServerOptions options,
         exec::ThreadPool* shared_pool);

  // The binary ops beyond the shared ones (ServeWire): queries, shard
  // sub-queries behind the version fence, and the sharding metadata ops.
  // Returns false when the connection should close.
  bool HandleRequest(Conn* conn, Session* session, const Request& request);
  bool HandleInstallShard(Conn* conn, const Request& request);
  bool HandleGetShard(Conn* conn);

  // Runs `fn` on the worker pool under one admission slot and counts its
  // outcome — every statement, binary or external, goes through here.
  template <typename Fn>
  auto RunAdmitted(const Fn& fn) -> decltype(fn());

  Database* db_;
  ServerOptions options_;

  // Installed shard identity (kInstallShard). `shard_mu_` also brackets the
  // version fence around sub-query execution: an install cannot commit
  // between a sub-query's pre- and post-execution version checks, so a
  // `kRows` response is always computed entirely under the version it
  // claims.
  mutable std::mutex shard_mu_;
  ShardMap shard_map_;
  uint32_t shard_self_ = 0;
  bool shard_active_ = false;

  std::unique_ptr<exec::ThreadPool> owned_pool_;  // Null when borrowed.
  exec::ThreadPool* pool_;  // owned_pool_.get() or the borrowed pool.

  // One execution budget for every protocol front end (net/admission.h);
  // the HTTP gateway borrows it through `admission()`.
  AdmissionGate admission_;

  Counters counters_;
  ConnRuntime runtime_;  // Last: its threads use everything above.
};

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_SERVER_H_
