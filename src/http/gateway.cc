#include "http/gateway.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "util/json.h"

namespace uindex {
namespace http {

namespace {

// Status → HTTP code, kept 1:1 with the binary protocol's taxonomy: a
// shed is 429 (kBusy on the wire), a drain is 503 (kError/"shutting
// down"), a parse error is 400 carrying the same caret diagnostics.
int HttpStatusFor(const Status& status) {
  if (status.IsInvalidArgument() || status.IsCorruption() ||
      status.IsNotFound()) {
    return 400;
  }
  if (status.IsNotSupported()) return 501;
  if (status.IsResourceExhausted()) {
    return net::IsShed(status) ? 429 : 503;
  }
  if (status.IsUnavailable() || status.IsStaleVersion()) return 503;
  return 500;
}

void AppendStatsJson(const net::WireQueryStats& s, std::string* out) {
  char sep = '{';
  for (const net::WireStatField& f : net::kWireStatFields) {
    *out += sep;
    *out += '"';
    *out += f.name;
    *out += "\":";
    *out += std::to_string(s.*f.wire);
    sep = ',';
  }
  *out += '}';
}

uint64_t SteadySeconds() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

HttpGateway::HttpGateway(GatewayBackend* backend, GatewayOptions options)
    : backend_(backend),
      options_(std::move(options)),
      qps_bucket_start_(SteadySeconds()),
      runtime_("gateway", options_.max_connections, &counters_,
               /*gate=*/nullptr,
               {[this](int fd) -> std::unique_ptr<net::Socket> {
                  return std::make_unique<HttpConn>(fd, options_.limits);
                },
                [](net::Socket* conn) {
                  static_cast<HttpConn*>(conn)->WriteResponse(
                      503, "application/json",
                      "{\"error\":\"too many connections\"}\n",
                      /*keep_alive=*/false);
                },
                [this](net::Socket* conn) {
                  ServeConnection(static_cast<HttpConn*>(conn));
                }}) {}

Result<std::unique_ptr<HttpGateway>> HttpGateway::Start(
    GatewayBackend* backend, GatewayOptions options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("gateway needs a backend");
  }
  std::unique_ptr<HttpGateway> gw(
      new HttpGateway(backend, std::move(options)));
  UINDEX_RETURN_IF_ERROR(
      gw->runtime_.Start(gw->options_.host, gw->options_.port));
  return gw;
}

void HttpGateway::ServeConnection(HttpConn* conn) {
  for (;;) {
    HttpRequest request;
    int http_status = 0;
    std::string error;
    const HttpConn::Outcome outcome =
        conn->ReadRequest(&request, &http_status, &error);
    if (outcome == HttpConn::Outcome::kBadRequest) {
      counters_.malformed_requests.fetch_add(1, std::memory_order_relaxed);
      WriteError(conn, http_status, error, /*keep_alive=*/false);
      return;
    }
    if (outcome != HttpConn::Outcome::kRequest) return;  // closed or idle
    if (!runtime_.BeginRequest()) {
      WriteError(conn, 503, runtime_.ShuttingDown().message(),
                 /*keep_alive=*/false);
      return;
    }
    counters_.requests_total.fetch_add(1, std::memory_order_relaxed);
    RecordRequestForQps();
    const bool keep = Dispatch(conn, request) && request.keep_alive;
    runtime_.EndRequest();
    if (!keep) return;
  }
}

bool HttpGateway::Dispatch(HttpConn* conn, const HttpRequest& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return WriteError(conn, 405, "use GET", request.keep_alive);
    }
    return HandleHealthz(conn, request);
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return WriteError(conn, 405, "use GET", request.keep_alive);
    }
    return HandleMetrics(conn, request);
  }
  if (request.target == "/v1/query") {
    if (request.method != "POST") {
      return WriteError(conn, 405, "use POST", request.keep_alive);
    }
    return HandleQuery(conn, request);
  }
  if (request.target == "/v1/dml") {
    if (request.method != "POST") {
      return WriteError(conn, 405, "use POST", request.keep_alive);
    }
    return HandleDml(conn, request);
  }
  return WriteError(conn, 404, "no such endpoint: " + request.target,
                    request.keep_alive);
}

bool HttpGateway::HandleHealthz(HttpConn* conn, const HttpRequest& request) {
  if (backend_->draining() || runtime_.draining()) {
    counters_.requests_server_error.fetch_add(1, std::memory_order_relaxed);
    return conn->WriteResponse(503, "application/json",
                               "{\"status\":\"draining\"}\n",
                               request.keep_alive)
        .ok();
  }
  counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  return conn
      ->WriteResponse(200, "application/json", "{\"status\":\"ok\"}\n",
                      request.keep_alive)
      .ok();
}

bool HttpGateway::HandleMetrics(HttpConn* conn, const HttpRequest& request) {
  std::string body;
  body.reserve(2048);
  auto metric = [&body](const char* name, uint64_t v) {
    body += name;
    body += ' ';
    body += std::to_string(v);
    body += '\n';
  };
  metric("uindex_http_accepted_total", counters_.accepted.load());
  metric("uindex_http_active_connections",
         counters_.active_connections.load());
  metric("uindex_http_requests_total", counters_.requests_total.load());
  metric("uindex_http_requests_ok_total", counters_.requests_ok.load());
  metric("uindex_http_requests_client_error_total",
         counters_.requests_client_error.load());
  metric("uindex_http_requests_server_error_total",
         counters_.requests_server_error.load());
  metric("uindex_http_requests_shed_total", counters_.requests_shed.load());
  metric("uindex_http_malformed_requests_total",
         counters_.malformed_requests.load());
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "uindex_http_qps %.2f\n",
                  QpsOverWindow());
    body += buf;
  }
  backend_->AppendMetrics(&body);
  counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  return conn
      ->WriteResponse(200, "text/plain; version=0.0.4", body,
                      request.keep_alive)
      .ok();
}

bool HttpGateway::HandleQuery(HttpConn* conn, const HttpRequest& request) {
  Result<json::Value> doc = json::Parse(request.body);
  if (!doc.ok()) {
    return WriteError(conn, 400, doc.status().message(),
                      request.keep_alive);
  }
  const json::Value* oql = doc.value().Find("oql");
  if (oql == nullptr || !oql->is_string()) {
    return WriteError(conn, 400,
                      "body must be {\"oql\": \"<query text>\"}",
                      request.keep_alive);
  }
  Result<QueryReply> reply = backend_->Query(oql->AsString());
  if (!reply.ok()) {
    return WriteError(conn, HttpStatusFor(reply.status()),
                      reply.status().message(), request.keep_alive);
  }
  const QueryReply& r = reply.value();
  std::string body;
  body.reserve(64 + r.oids.size() * 8);
  body += "{\"oids\":[";
  for (size_t i = 0; i < r.oids.size(); ++i) {
    if (i != 0) body += ',';
    body += std::to_string(r.oids[i]);
  }
  body += "],\"count\":";
  body += std::to_string(r.count);
  body += ",\"used_index\":";
  body += r.used_index ? "true" : "false";
  body += ",\"plan\":";
  json::AppendQuoted(&body, r.plan);
  body += ",\"stats\":";
  AppendStatsJson(r.stats, &body);
  body += "}\n";
  counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  return conn
      ->WriteResponse(200, "application/json", body, request.keep_alive)
      .ok();
}

bool HttpGateway::HandleDml(HttpConn* conn, const HttpRequest& request) {
  Result<json::Value> doc = json::Parse(request.body);
  if (!doc.ok()) {
    return WriteError(conn, 400, doc.status().message(),
                      request.keep_alive);
  }
  const json::Value& body = doc.value();
  const json::Value* op = body.Find("op");
  if (op == nullptr || !op->is_string()) {
    return WriteError(conn, 400, "body must carry \"op\"",
                      request.keep_alive);
  }
  DmlOp dml;
  if (op->AsString() == "create_object") {
    dml.kind = DmlOp::Kind::kCreateObject;
    const json::Value* cls = body.Find("class");
    if (cls == nullptr || !cls->is_string()) {
      return WriteError(conn, 400,
                        "create_object needs \"class\": \"<name>\"",
                        request.keep_alive);
    }
    dml.class_name = cls->AsString();
  } else if (op->AsString() == "set_attr") {
    dml.kind = DmlOp::Kind::kSetAttr;
    const json::Value* oid = body.Find("oid");
    const json::Value* attr = body.Find("attr");
    const json::Value* value = body.Find("value");
    if (oid == nullptr || !oid->is_int() || attr == nullptr ||
        !attr->is_string() || value == nullptr) {
      return WriteError(
          conn, 400,
          "set_attr needs \"oid\": <int>, \"attr\": \"<name>\", "
          "\"value\": <int or string>",
          request.keep_alive);
    }
    dml.oid = static_cast<Oid>(oid->AsInt());
    dml.attr = attr->AsString();
    if (value->is_int()) {
      dml.value = Value::Int(value->AsInt());
    } else if (value->is_string()) {
      dml.value = Value::Str(value->AsString());
    } else {
      return WriteError(conn, 400,
                        "\"value\" must be an integer or a string",
                        request.keep_alive);
    }
  } else if (op->AsString() == "delete_object") {
    dml.kind = DmlOp::Kind::kDeleteObject;
    const json::Value* oid = body.Find("oid");
    if (oid == nullptr || !oid->is_int()) {
      return WriteError(conn, 400, "delete_object needs \"oid\": <int>",
                        request.keep_alive);
    }
    dml.oid = static_cast<Oid>(oid->AsInt());
  } else {
    return WriteError(conn, 400,
                      "unknown op \"" + op->AsString() +
                          "\" (create_object | set_attr | delete_object)",
                      request.keep_alive);
  }

  Oid created = 0;
  const Status status = backend_->Dml(dml, &created);
  if (!status.ok()) {
    return WriteError(conn, HttpStatusFor(status), status.message(),
                      request.keep_alive);
  }
  std::string out;
  if (dml.kind == DmlOp::Kind::kCreateObject) {
    out = "{\"oid\":" + std::to_string(created) + "}\n";
  } else {
    out = "{\"ok\":true}\n";
  }
  counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  return conn->WriteResponse(200, "application/json", out,
                             request.keep_alive)
      .ok();
}

bool HttpGateway::WriteError(HttpConn* conn, int status,
                             const std::string& message, bool keep_alive) {
  if (status == 429) {
    counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 500) {
    counters_.requests_server_error.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.requests_client_error.fetch_add(1, std::memory_order_relaxed);
  }
  std::string body = "{\"error\":";
  json::AppendQuoted(&body, message);
  body += "}\n";
  return conn->WriteResponse(status, "application/json", body, keep_alive)
      .ok();
}

void HttpGateway::RecordRequestForQps() {
  const uint64_t now = SteadySeconds();
  std::lock_guard<std::mutex> lock(qps_mu_);
  if (now != qps_bucket_start_) {
    const uint64_t advance = now - qps_bucket_start_;
    // Shift the window; anything older than the window zeroes out.
    for (int i = kQpsWindowSecs - 1; i >= 0; --i) {
      const int64_t from = i - static_cast<int64_t>(advance);
      qps_buckets_[i] = from >= 0 ? qps_buckets_[from] : 0;
    }
    qps_bucket_start_ = now;
  }
  ++qps_buckets_[0];
}

double HttpGateway::QpsOverWindow() {
  std::lock_guard<std::mutex> lock(qps_mu_);
  uint64_t total = 0;
  // Skip the in-progress current second; average the completed ones.
  for (int i = 1; i < kQpsWindowSecs; ++i) total += qps_buckets_[i];
  return static_cast<double>(total) / (kQpsWindowSecs - 1);
}

}  // namespace http
}  // namespace uindex
