#include "http/backend.h"

#include "db/session.h"
#include "storage/io_stats.h"

namespace uindex {
namespace http {

namespace {

void Metric(std::string* out, const char* name, uint64_t value) {
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

void MetricF(std::string* out, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %.6f\n", name, value);
  *out += buf;
}

void AppendGateMetrics(const net::AdmissionGate& gate, std::string* out) {
  Metric(out, "uindex_admission_inflight", gate.inflight());
  Metric(out, "uindex_admission_waiting", gate.waiting());
  Metric(out, "uindex_admission_max_inflight", gate.max_inflight());
  Metric(out, "uindex_admission_max_queued", gate.max_queued());
  Metric(out, "uindex_admission_admitted_total", gate.admitted_total());
  // Sheds across EVERY protocol sharing the gate (HTTP and binary).
  Metric(out, "uindex_admission_shed_total", gate.shed_total());
}

}  // namespace

// ---------------------------------------------------------- ServerBackend

Result<QueryReply> ServerBackend::Query(const std::string& oql) {
  Session session(server_->db());
  Result<Database::OqlResult> result =
      server_->ExecuteExternal(&session, oql);
  UINDEX_RETURN_IF_ERROR(result.status());
  QueryReply reply;
  reply.oids = std::move(result.value().oids);
  reply.count = result.value().count;
  reply.used_index = result.value().used_index;
  reply.plan = std::move(result.value().plan);
  // A fresh per-request session is its own per-query delta — the same
  // numbers a binary kRows response carries.
  reply.stats = net::WireStatsDelta(Session::Stats(), session.stats());
  return reply;
}

Status ServerBackend::Dml(const DmlOp& op, Oid* created) {
  Database* db = server_->db();
  switch (op.kind) {
    case DmlOp::Kind::kCreateObject: {
      Result<ClassId> cls = db->schema().FindClass(op.class_name);
      UINDEX_RETURN_IF_ERROR(cls.status());
      Oid oid = 0;
      Status status = Status::OK();
      UINDEX_RETURN_IF_ERROR(server_->ExecuteExternalDml(
          [db, &cls, &oid, &status] {
            Result<Oid> r = db->CreateObject(cls.value());
            status = r.status();
            if (r.ok()) oid = r.value();
            return status;
          }));
      *created = oid;
      return status;
    }
    case DmlOp::Kind::kSetAttr:
      return server_->ExecuteExternalDml([db, &op] {
        return db->SetAttr(op.oid, op.attr, op.value);
      });
    case DmlOp::Kind::kDeleteObject:
      return server_->ExecuteExternalDml(
          [db, &op] { return db->DeleteObject(op.oid); });
  }
  return Status::InvalidArgument("unknown DML op");
}

void ServerBackend::AppendMetrics(std::string* out) const {
  AppendGateMetrics(server_->admission(), out);

  const net::Server::Counters& c = server_->counters();
  Metric(out, "uindex_server_accepted_total", c.accepted.load());
  Metric(out, "uindex_server_active_connections",
         c.active_connections.load());
  Metric(out, "uindex_server_queries_ok_total", c.queries_ok.load());
  Metric(out, "uindex_server_queries_failed_total", c.queries_failed.load());
  Metric(out, "uindex_server_busy_rejected_total", c.busy_rejected.load());
  Metric(out, "uindex_server_protocol_errors_total",
         c.protocol_errors.load());
  Metric(out, "uindex_server_stale_rejected_total", c.stale_rejected.load());

  // Database-wide IoStats: logical cache behaviour, physical buffer-pool
  // traffic, MVCC + group commit — the same counters `stats` shows in the
  // shell, as process-lifetime totals.
  const IoStats& io = server_->db()->buffers().stats();
  Metric(out, "uindex_io_pages_read_total", io.pages_read.load());
  Metric(out, "uindex_io_pages_written_total", io.pages_written.load());
  Metric(out, "uindex_io_nodes_parsed_total", io.nodes_parsed.load());
  Metric(out, "uindex_io_node_cache_hits_total", io.node_cache_hits.load());
  Metric(out, "uindex_io_prefetch_issued_total", io.prefetch_issued.load());
  Metric(out, "uindex_io_prefetch_hits_total", io.prefetch_hits.load());
  Metric(out, "uindex_io_prefetch_wasted_total",
         io.prefetch_wasted.load());
  const uint64_t pool_hits = io.pool_hits.load();
  const uint64_t pool_misses = io.pool_misses.load();
  Metric(out, "uindex_io_pool_hits_total", pool_hits);
  Metric(out, "uindex_io_pool_misses_total", pool_misses);
  MetricF(out, "uindex_io_pool_hit_rate",
          pool_hits + pool_misses == 0
              ? 0.0
              : static_cast<double>(pool_hits) /
                    static_cast<double>(pool_hits + pool_misses));
  Metric(out, "uindex_io_evictions_total", io.evictions.load());
  Metric(out, "uindex_io_writebacks_total", io.writebacks.load());
  Metric(out, "uindex_mvcc_epochs_published_total",
         io.epochs_published.load());
  Metric(out, "uindex_mvcc_pages_cow_total", io.pages_cow.load());
  Metric(out, "uindex_commit_batches_total", io.commit_batches.load());
  Metric(out, "uindex_commit_records_total", io.commit_records.load());
  Metric(out, "uindex_mvcc_reader_pin_max_age_us",
         io.reader_pin_max_age_us.load());

  const net::Server::ShardInfo shard = server_->shard_info();
  Metric(out, "uindex_shard_active", shard.active ? 1 : 0);
  Metric(out, "uindex_shard_map_version", shard.version);
  Metric(out, "uindex_shard_self_index", shard.self_index);
}

// ---------------------------------------------------------- RouterBackend

Result<QueryReply> RouterBackend::Query(const std::string& oql) {
  Result<net::Router::QueryOutcome> result = server_->ExecuteExternal(oql);
  UINDEX_RETURN_IF_ERROR(result.status());
  QueryReply reply;
  reply.oids = std::move(result.value().oids);
  reply.count = result.value().count;
  reply.used_index = result.value().used_index;
  reply.plan = std::move(result.value().plan);
  reply.stats = result.value().stats;
  return reply;
}

Status RouterBackend::Dml(const DmlOp& op, Oid* created) {
  (void)op;
  (void)created;
  return Status::NotSupported(
      "DML is not available through the router front end");
}

void RouterBackend::AppendMetrics(std::string* out) const {
  AppendGateMetrics(server_->admission(), out);

  const net::RouterServer::Counters& c = server_->counters();
  Metric(out, "uindex_router_accepted_total", c.accepted.load());
  Metric(out, "uindex_router_active_connections",
         c.active_connections.load());
  Metric(out, "uindex_router_queries_ok_total", c.queries_ok.load());
  Metric(out, "uindex_router_queries_failed_total", c.queries_failed.load());
  Metric(out, "uindex_router_busy_rejected_total", c.busy_rejected.load());
  Metric(out, "uindex_router_protocol_errors_total",
         c.protocol_errors.load());

  const net::Router::Counters& r = server_->router()->counters();
  Metric(out, "uindex_scatter_queries_ok_total", r.queries_ok.load());
  Metric(out, "uindex_scatter_queries_failed_total",
         r.queries_failed.load());
  Metric(out, "uindex_scatter_subqueries_sent_total",
         r.subqueries_sent.load());
  Metric(out, "uindex_scatter_shards_pruned_total", r.shards_pruned.load());
  Metric(out, "uindex_scatter_stale_retries_total", r.stale_retries.load());
  Metric(out, "uindex_scatter_partial_failures_total",
         r.partial_failures.load());
  Metric(out, "uindex_scatter_conns_created_total", r.conns_created.load());
  Metric(out, "uindex_scatter_conns_evicted_total", r.conns_evicted.load());
}

}  // namespace http
}  // namespace uindex
