#include "net/server.h"

#include <algorithm>
#include <utility>

namespace uindex {
namespace net {

Server::Server(Database* db, ServerOptions options,
               exec::ThreadPool* shared_pool)
    : db_(db),
      options_(std::move(options)),
      owned_pool_(shared_pool != nullptr
                      ? nullptr
                      : std::make_unique<exec::ThreadPool>(
                            std::max<size_t>(1, options_.worker_threads))),
      pool_(shared_pool != nullptr ? shared_pool : owned_pool_.get()),
      admission_(options_.max_inflight_queries != 0
                     ? options_.max_inflight_queries
                     : pool_->size(),
                 options_.max_queued_queries),
      runtime_("server", options_.max_connections, &counters_, &admission_,
               WireFraming(options_.io_timeout_ms, [this](Conn* conn) {
                 Session session(db_);
                 ServeWire(&runtime_, conn, options_.idle_timeout_ms,
                           session.stats(), counters_.protocol_errors,
                           [&](const Request& request) {
                             return HandleRequest(conn, &session, request);
                           });
               })) {}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              ServerOptions options,
                                              exec::ThreadPool* shared_pool) {
  std::unique_ptr<Server> server(
      new Server(db, std::move(options), shared_pool));
  UINDEX_RETURN_IF_ERROR(server->runtime_.Start(server->options_.host,
                                                server->options_.port));
  return server;
}

bool Server::HandleRequest(Conn* conn, Session* session,
                           const Request& request) {
  switch (request.op) {
    case Op::kInstallShard:
      return HandleInstallShard(conn, request);
    case Op::kGetShard:
      return HandleGetShard(conn);
    case Op::kQuery:
      break;
    case Op::kShardQuery: {
      // Version fence, first half: a sub-query compiled against a ShardMap
      // other than the installed one must never run — the served ranges it
      // assumed are not the ones this database enforces.
      std::lock_guard<std::mutex> lock(shard_mu_);
      if (!shard_active_ || shard_map_.version != request.map_version) {
        counters_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
        const uint64_t installed = shard_active_ ? shard_map_.version : 0;
        return conn
            ->WriteFrame(Slice(EncodeStaleMap(
                installed,
                shard_active_
                    ? "sub-query map version " +
                          std::to_string(request.map_version) +
                          " != installed " + std::to_string(installed)
                    : "no shard map installed")))
            .ok();
      }
      break;
    }
    default:
      // DecodeRequest already rejected unknown ops; response ops cannot
      // reach here.
      return false;
  }

  // The session is handed to exactly one worker at a time, so its serial
  // contract holds.
  const Session::Stats before = session->stats();
  Result<Database::OqlResult> result = ExecuteExternal(session, request.oql);
  std::string response;
  if (result.ok() && request.op == Op::kShardQuery) {
    // Version fence, second half: if an install committed while the
    // sub-query ran, the result may mix served ranges — discard it and let
    // the router refresh and retry the whole scatter. Installs hold
    // shard_mu_ across both the range swap and the version bump, so a
    // version unchanged here proves the query ran under the map it named.
    std::lock_guard<std::mutex> lock(shard_mu_);
    if (!shard_active_ || shard_map_.version != request.map_version) {
      counters_.stale_rejected.fetch_add(1, std::memory_order_relaxed);
      response = EncodeStaleMap(shard_active_ ? shard_map_.version : 0,
                                "shard map changed during sub-query");
    }
  }
  if (!response.empty()) {
    // Fell through the fence above; drop the result.
  } else if (result.ok()) {
    const Database::OqlResult& rows = result.value();
    response = EncodeRows(rows.oids, rows.count, rows.used_index, rows.plan,
                          WireStatsDelta(before, session->stats()));
  } else {
    response = EncodeFailure(result.status());
  }
  return conn->WriteFrame(Slice(response)).ok();
}

template <typename Fn>
auto Server::RunAdmitted(const Fn& fn) -> decltype(fn()) {
  UINDEX_RETURN_IF_ERROR(runtime_.Admit());
  auto result = pool_->Submit(fn).Take();
  admission_.Release();
  (result.ok() ? counters_.queries_ok : counters_.queries_failed)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<Database::OqlResult> Server::ExecuteExternal(Session* session,
                                                    const std::string& oql) {
  return RunAdmitted([session, &oql] { return session->ExecuteOql(oql); });
}

Status Server::ExecuteExternalDml(const std::function<Status()>& dml) {
  return RunAdmitted(dml);
}

Server::ShardInfo Server::shard_info() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  ShardInfo info;
  info.active = shard_active_;
  info.version = shard_active_ ? shard_map_.version : 0;
  info.self_index = shard_self_;
  return info;
}

Status Server::InstallShard(const ShardMap& map, uint32_t self_index) {
  UINDEX_RETURN_IF_ERROR(map.Validate());
  if (self_index >= map.entries.size()) {
    return Status::InvalidArgument(
        "self index " + std::to_string(self_index) + " out of range for " +
        std::to_string(map.entries.size()) + " shards");
  }
  std::lock_guard<std::mutex> lock(shard_mu_);
  if (shard_active_ && map.version < shard_map_.version) {
    // Versions only move forward; an old map is an operator error (or a
    // replayed frame) and must not roll the partitioning back.
    return Status::StaleVersion(
        "install carries version " + std::to_string(map.version) +
        " < installed " + std::to_string(shard_map_.version));
  }
  db_->SetServedRange(
      {map.entries[self_index].lo, map.HiOf(self_index), map.version});
  shard_map_ = map;
  shard_self_ = self_index;
  shard_active_ = true;
  return Status::OK();
}

bool Server::HandleInstallShard(Conn* conn, const Request& request) {
  Result<ShardMap> map = ShardMap::DecodeBlob(Slice(request.map_blob));
  if (!map.ok()) {
    return conn->WriteFrame(Slice(EncodeError(map.status()))).ok();
  }
  const Status installed = InstallShard(map.value(), request.self_index);
  if (!installed.ok()) {
    return conn->WriteFrame(Slice(EncodeError(installed))).ok();
  }
  return conn
      ->WriteFrame(
          Slice(EncodeShardState(true, request.self_index, request.map_blob)))
      .ok();
}

bool Server::HandleGetShard(Conn* conn) {
  std::lock_guard<std::mutex> lock(shard_mu_);
  std::string blob;
  if (shard_active_) shard_map_.EncodeBlob(&blob);
  return conn
      ->WriteFrame(Slice(EncodeShardState(shard_active_, shard_self_, blob)))
      .ok();
}

}  // namespace net
}  // namespace uindex
