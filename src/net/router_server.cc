#include "net/router_server.h"

#include <utility>

namespace uindex {
namespace net {

RouterServer::RouterServer(Router* router, RouterServerOptions options)
    : router_(router),
      options_(std::move(options)),
      admission_(options_.max_inflight_queries, options_.max_queued_queries),
      runtime_("router", options_.max_connections, &counters_, &admission_,
               WireFraming(options_.io_timeout_ms, [this](Conn* conn) {
                 Session::Stats stats;  // Synthesized, cluster-wide.
                 ServeWire(&runtime_, conn, options_.idle_timeout_ms, stats,
                           counters_.protocol_errors,
                           [&](const Request& request) {
                             return HandleRequest(conn, &stats, request);
                           });
               })) {}

Result<std::unique_ptr<RouterServer>> RouterServer::Start(
    Router* router, RouterServerOptions options) {
  if (router == nullptr) {
    return Status::InvalidArgument("router server needs a router");
  }
  std::unique_ptr<RouterServer> server(
      new RouterServer(router, std::move(options)));
  UINDEX_RETURN_IF_ERROR(server->runtime_.Start(server->options_.host,
                                                server->options_.port));
  return server;
}

bool RouterServer::HandleRequest(Conn* conn, Session::Stats* stats,
                                 const Request& request) {
  if (request.op != Op::kQuery) {
    // The router front end does not serve shard-internal ops; a v4 peer
    // speaking kShardQuery at a router is a topology mistake.
    conn->WriteFrame(Slice(EncodeError(Status::NotSupported(
        "router front end serves kQuery only"))));
    return true;
  }
  const Status admitted = runtime_.Admit();
  if (!admitted.ok()) {
    return conn->WriteFrame(Slice(EncodeFailure(admitted))).ok();
  }
  Result<Router::QueryOutcome> result = QueryAdmitted(request.oql);
  if (!result.ok()) {
    ++stats->failed;
    return conn->WriteFrame(Slice(EncodeError(result.status()))).ok();
  }
  // Fold like a local Session: OK calls, their rows, and their IoStats.
  const Router::QueryOutcome& rows = result.value();
  ++stats->queries;
  stats->rows += rows.oids.size();
  AccumulateWireStats(rows.stats, stats);
  return conn
      ->WriteFrame(Slice(EncodeRows(rows.oids, rows.count, rows.used_index,
                                    rows.plan, rows.stats)))
      .ok();
}

Result<Router::QueryOutcome> RouterServer::ExecuteExternal(
    const std::string& oql) {
  UINDEX_RETURN_IF_ERROR(runtime_.Admit());
  return QueryAdmitted(oql);
}

Result<Router::QueryOutcome> RouterServer::QueryAdmitted(
    const std::string& oql) {
  Result<Router::QueryOutcome> result = router_->Query(oql);
  admission_.Release();
  (result.ok() ? counters_.queries_ok : counters_.queries_failed)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace net
}  // namespace uindex
