#ifndef UINDEX_HTTP_BACKEND_H_
#define UINDEX_HTTP_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/admission.h"
#include "net/protocol.h"
#include "net/router_server.h"
#include "net/server.h"
#include "objects/object.h"
#include "util/status.h"

namespace uindex {
namespace http {

/// One executed query, ready for JSON serialization: the
/// `Database::OqlResult` shape plus the same per-query `WireQueryStats`
/// delta a binary `kRows` response carries — the gateway exposes exactly
/// the observability the wire protocol has, not a subset.
struct QueryReply {
  std::vector<Oid> oids;
  uint64_t count = 0;
  bool used_index = false;
  std::string plan;
  net::WireQueryStats stats;
};

/// A parsed /v1/dml request body.
struct DmlOp {
  enum class Kind { kCreateObject, kSetAttr, kDeleteObject };
  Kind kind = Kind::kCreateObject;
  std::string class_name;  ///< kCreateObject
  Oid oid = 0;             ///< kSetAttr / kDeleteObject
  std::string attr;        ///< kSetAttr
  Value value;             ///< kSetAttr (int or string)
};

/// What the gateway talks to: one `Database` behind a `net::Server`, or a
/// sharded cluster behind a `net::RouterServer`. Either way the backend
/// routes execution through the process's ONE `net::AdmissionGate`, so an
/// HTTP request and a binary frame compete for the same budget and a shed
/// on either protocol lands in the same counter.
class GatewayBackend {
 public:
  virtual ~GatewayBackend() = default;

  virtual Result<QueryReply> Query(const std::string& oql) = 0;

  /// Executes one mutation. `created` receives the new oid for
  /// `kCreateObject` (untouched otherwise). `NotSupported` where the
  /// backend cannot mutate (the router front end) — the gateway maps it
  /// to a typed 501.
  virtual Status Dml(const DmlOp& op, Oid* created) = 0;

  /// Appends backend counters to the /metrics exposition (admission,
  /// IoStats, MVCC, shard/router state).
  virtual void AppendMetrics(std::string* out) const = 0;

  /// True once the underlying server began a graceful drain.
  virtual bool draining() const = 0;
};

/// The single-server backend: queries and DML both run on the `Server`'s
/// worker pool under its admission gate, each HTTP request with its own
/// short-lived `db::Session` for per-request stats attribution.
class ServerBackend : public GatewayBackend {
 public:
  explicit ServerBackend(net::Server* server) : server_(server) {}

  Result<QueryReply> Query(const std::string& oql) override;
  Status Dml(const DmlOp& op, Oid* created) override;
  void AppendMetrics(std::string* out) const override;
  bool draining() const override { return server_->draining(); }

 private:
  net::Server* server_;
};

/// The router backend: queries scatter-gather through the cluster under
/// the `RouterServer`'s admission gate (the same one its binary clients
/// use). DML is `NotSupported` — the scatter path is read-only.
class RouterBackend : public GatewayBackend {
 public:
  explicit RouterBackend(net::RouterServer* server) : server_(server) {}

  Result<QueryReply> Query(const std::string& oql) override;
  Status Dml(const DmlOp& op, Oid* created) override;
  void AppendMetrics(std::string* out) const override;
  bool draining() const override { return server_->draining(); }

 private:
  net::RouterServer* server_;
};

}  // namespace http
}  // namespace uindex

#endif  // UINDEX_HTTP_BACKEND_H_
