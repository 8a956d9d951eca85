// End-to-end and hostility tests for the HTTP/JSON gateway (src/http/)
// plus unit coverage of the strict JSON parser (src/util/json.h) it is
// built on. Mirrors the protocol-v4 hostility suite's style
// (net_server_test.cc): every attack is driven through a real socket, and
// the assertion is always a *typed* rejection plus a still-healthy server.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/thread_pool.h"
#include "http/backend.h"
#include "http/gateway.h"
#include "http/http_client.h"
#include "net/client.h"
#include "net/router.h"
#include "net/router_server.h"
#include "net/server.h"
#include "util/json.h"

namespace uindex {
namespace http {
namespace {

// The net_server_test database: Item root with 4 subclasses, int
// hierarchy index on "price", 400 objects over 97 keys — behind a
// net::Server with the gateway mounted on top.
class HttpGatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    root_ = db_->CreateClass("Item").value();
    for (int i = 0; i < 4; ++i) {
      subs_.push_back(
          db_->CreateSubclass("Item" + std::to_string(i), root_).value());
    }
    ASSERT_TRUE(db_->CreateIndex(PathSpec::ClassHierarchy(
                                     root_, "price", Value::Kind::kInt))
                    .ok());
    for (int i = 0; i < kObjects; ++i) {
      const Oid oid = db_->CreateObject(subs_[i % subs_.size()]).value();
      ASSERT_TRUE(db_->SetAttr(oid, "price", Value::Int(i % kPrices)).ok());
    }
  }

  void StartStack(net::ServerOptions server_options = net::ServerOptions(),
                  exec::ThreadPool* pool = nullptr,
                  GatewayOptions gateway_options = GatewayOptions()) {
    Result<std::unique_ptr<net::Server>> server =
        net::Server::Start(db_.get(), server_options, pool);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    backend_ = std::make_unique<ServerBackend>(server_.get());
    Result<std::unique_ptr<HttpGateway>> gateway =
        HttpGateway::Start(backend_.get(), gateway_options);
    ASSERT_TRUE(gateway.ok()) << gateway.status().ToString();
    gateway_ = std::move(gateway).value();
  }

  // A one-shard cluster over db_ — a shard net::Server (on `shard_pool`
  // when given), a Router planning on db_, a RouterServer — with the
  // gateway mounted on the router front end.
  void StartRouterStack(net::RouterServerOptions front_options,
                        exec::ThreadPool* shard_pool = nullptr) {
    net::ServerOptions shard_options;
    shard_options.worker_threads = 2;
    Result<std::unique_ptr<net::Server>> shard =
        net::Server::Start(db_.get(), shard_options, shard_pool);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    server_ = std::move(shard).value();
    net::ShardMap map;
    map.version = 1;
    net::ShardMap::Entry entry;
    entry.lo = "";
    entry.host = "127.0.0.1";
    entry.port = server_->port();
    map.entries.push_back(entry);
    ASSERT_TRUE(server_->InstallShard(map, 0).ok());
    Result<std::unique_ptr<net::Router>> router =
        net::Router::Create(map, db_.get(), net::RouterOptions());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(router).value();
    Result<std::unique_ptr<net::RouterServer>> front =
        net::RouterServer::Start(router_.get(), front_options);
    ASSERT_TRUE(front.ok()) << front.status().ToString();
    front_ = std::move(front).value();
    router_backend_ = std::make_unique<RouterBackend>(front_.get());
    Result<std::unique_ptr<HttpGateway>> gateway =
        HttpGateway::Start(router_backend_.get(), GatewayOptions());
    ASSERT_TRUE(gateway.ok()) << gateway.status().ToString();
    gateway_ = std::move(gateway).value();
  }

  std::unique_ptr<HttpClient> MustConnect() {
    Result<std::unique_ptr<HttpClient>> client =
        HttpClient::Connect("127.0.0.1", gateway_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  static std::string PriceQuery(int key) {
    return "SELECT i FROM Item* i WHERE i.price = " + std::to_string(key);
  }
  static std::string QueryBody(int key) {
    return "{\"oql\": \"" + PriceQuery(key) + "\"}";
  }

  static constexpr int kObjects = 400;
  static constexpr int kPrices = 97;
  std::unique_ptr<Database> db_;
  ClassId root_ = kInvalidClassId;
  std::vector<ClassId> subs_;
  std::unique_ptr<net::Server> server_;  // The router stack's shard.
  std::unique_ptr<ServerBackend> backend_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<net::RouterServer> front_;
  std::unique_ptr<RouterBackend> router_backend_;
  std::unique_ptr<HttpGateway> gateway_;  // Torn down first (decl order).
};

// Parses a response body that must be a JSON object.
json::Value MustParse(const std::string& body) {
  Result<json::Value> doc = json::Parse(body);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\nbody: " << body;
  return doc.ok() ? std::move(doc).value() : json::Value();
}

std::vector<Oid> OidsOf(const json::Value& doc) {
  std::vector<Oid> out;
  const json::Value* oids = doc.Find("oids");
  if (oids == nullptr) return out;
  for (const json::Value& v : oids->items()) {
    out.push_back(static_cast<Oid>(v.AsInt()));
  }
  return out;
}

// ------------------------------------------------------------ functional

TEST_F(HttpGatewayTest, QueryRowsMatchInProcessExecution) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  for (int key = 0; key < 20; ++key) {
    Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(key));
    ASSERT_TRUE(local.ok());
    Result<HttpClient::Response> response =
        client->Post("/v1/query", QueryBody(key));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200) << response.value().body;
    const json::Value doc = MustParse(response.value().body);
    EXPECT_EQ(OidsOf(doc), local.value().oids);
    ASSERT_NE(doc.Find("count"), nullptr);
    EXPECT_EQ(doc.Find("count")->AsInt(),
              static_cast<int64_t>(local.value().count));
    ASSERT_NE(doc.Find("used_index"), nullptr);
    EXPECT_EQ(doc.Find("used_index")->AsBool(), local.value().used_index);
    ASSERT_NE(doc.Find("plan"), nullptr);
    EXPECT_EQ(doc.Find("plan")->AsString(), local.value().plan);
    // Per-query IoStats ride along, exactly like a binary kRows response.
    const json::Value* stats = doc.Find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->is_object());
    EXPECT_NE(stats->Find("pages_read"), nullptr);
    EXPECT_NE(stats->Find("node_cache_hits"), nullptr);
    EXPECT_NE(stats->Find("epochs_published"), nullptr);
  }
}

TEST_F(HttpGatewayTest, DmlMutationsAreVisibleToQueries) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);

  const std::vector<Oid> before =
      db_->ExecuteOql(PriceQuery(3)).value().oids;

  Result<HttpClient::Response> created = client->Post(
      "/v1/dml", "{\"op\": \"create_object\", \"class\": \"Item0\"}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().status, 200) << created.value().body;
  const json::Value created_doc = MustParse(created.value().body);
  ASSERT_NE(created_doc.Find("oid"), nullptr);
  const Oid oid = static_cast<Oid>(created_doc.Find("oid")->AsInt());

  Result<HttpClient::Response> set = client->Post(
      "/v1/dml", "{\"op\": \"set_attr\", \"oid\": " + std::to_string(oid) +
                     ", \"attr\": \"price\", \"value\": 3}");
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set.value().status, 200) << set.value().body;

  Result<HttpClient::Response> after =
      client->Post("/v1/query", QueryBody(3));
  ASSERT_TRUE(after.ok());
  std::vector<Oid> expected = before;
  expected.push_back(oid);
  EXPECT_EQ(OidsOf(MustParse(after.value().body)), expected);

  Result<HttpClient::Response> removed = client->Post(
      "/v1/dml",
      "{\"op\": \"delete_object\", \"oid\": " + std::to_string(oid) + "}");
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed.value().status, 200) << removed.value().body;
  Result<HttpClient::Response> back =
      client->Post("/v1/query", QueryBody(3));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(OidsOf(MustParse(back.value().body)), before);
}

TEST_F(HttpGatewayTest, HealthzTracksTheBackendDrain) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<HttpClient::Response> healthy = client->Get("/healthz");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().status, 200);
  EXPECT_NE(healthy.value().body.find("\"ok\""), std::string::npos);

  // Drain the binary server; the gateway itself keeps serving, but
  // advertises the backend as draining so load balancers stop routing.
  server_->Shutdown();
  Result<HttpClient::Response> draining = client->Get("/healthz");
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(draining.value().status, 503);
  EXPECT_NE(draining.value().body.find("draining"), std::string::npos);
}

TEST_F(HttpGatewayTest, MetricsExposeTheWholeStack) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  // One query so the counters are provably live, not just present.
  ASSERT_TRUE(client->Post("/v1/query", QueryBody(1)).ok());

  Result<HttpClient::Response> metrics = client->Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  const std::string& text = metrics.value().body;
  for (const char* name :
       {"uindex_admission_inflight", "uindex_admission_admitted_total",
        "uindex_admission_shed_total", "uindex_server_queries_ok_total",
        "uindex_io_pages_read_total", "uindex_io_pool_hit_rate",
        "uindex_mvcc_epochs_published_total", "uindex_commit_batches_total",
        "uindex_shard_active", "uindex_http_requests_total",
        "uindex_http_qps"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // The admitted counter reflects the query we just ran.
  EXPECT_NE(text.find("uindex_admission_admitted_total"), std::string::npos);
  EXPECT_EQ(server_->admission().admitted_total(), 1u);
}

// The tentpole invariant: HTTP and binary clients compete for the SAME
// admission budget, so saturation caused on one protocol is observable
// from the other.
TEST_F(HttpGatewayTest, ShedOnOneProtocolIsObservableOnTheOther) {
  exec::ThreadPool pool(1);
  net::ServerOptions options;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 0;
  StartStack(options, &pool);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  // A binary client occupies the single admission slot...
  Result<std::unique_ptr<net::Client>> binary =
      net::Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(binary.ok());
  Result<net::Client::QueryResult> in_flight = Status::NotFound("unset");
  std::thread blocked(
      [&] { in_flight = binary.value()->Query(PriceQuery(3)); });
  // Admitted, not merely queued: the blocker alone makes the pool queue
  // non-empty until the worker picks it up.
  while (server_->admission().inflight() == 0) std::this_thread::yield();

  // ...so an HTTP query is shed with a typed 429.
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<HttpClient::Response> shed =
      client->Post("/v1/query", QueryBody(4));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 429) << shed.value().body;
  EXPECT_NE(shed.value().body.find("busy"), std::string::npos);

  // The shed is visible in the shared gate — over HTTP /metrics, where a
  // binary-protocol operator would also see HTTP-caused sheds.
  Result<HttpClient::Response> metrics = client->Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("uindex_admission_shed_total 1"),
            std::string::npos)
      << metrics.value().body;
  EXPECT_EQ(server_->admission().shed_total(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  // The slot is freed only after the response is written; wait for it.
  while (server_->admission().inflight() != 0) std::this_thread::yield();
  // The shed HTTP connection is still usable afterwards.
  Result<HttpClient::Response> retry =
      client->Post("/v1/query", QueryBody(4));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().status, 200);
}

// A gateway drain delivers: a query already read when Shutdown begins
// still gets its 200, with the rows in-process execution returns.
TEST_F(HttpGatewayTest, GracefulShutdownDrainsInFlightQueries) {
  exec::ThreadPool pool(1);
  net::ServerOptions options;
  options.max_inflight_queries = 1;
  StartStack(options, &pool);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<HttpClient::Response> in_flight = Status::NotFound("unset");
  std::thread query(
      [&] { in_flight = client->Post("/v1/query", QueryBody(7)); });
  while (server_->admission().inflight() == 0) std::this_thread::yield();

  std::atomic<bool> shutdown_done{false};
  std::thread shutdown([&] {
    gateway_->Shutdown();
    shutdown_done.store(true);
  });
  // Shutdown must wait for the request it already read. The pause outlasts
  // the accept loop's 200 ms tick, so a teardown that did not wait for
  // delivery would have cut the connection by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_FALSE(shutdown_done.load());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  query.join();
  shutdown.join();

  // The in-flight query's response was delivered, not dropped.
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
  ASSERT_EQ(in_flight.value().status, 200) << in_flight.value().body;
  Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(7));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(OidsOf(MustParse(in_flight.value().body)), local.value().oids);
  EXPECT_EQ(gateway_->active_connections(), 0u);

  // New connections are refused after shutdown.
  EXPECT_FALSE(HttpClient::Connect("127.0.0.1", gateway_->port(), 500).ok());
}

// -------------------------------------------------------------- hostility

TEST_F(HttpGatewayTest, OversizedHeadersAreRejectedWith431) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::string request = "GET /healthz HTTP/1.1\r\nhost: x\r\n";
  request += "x-filler: " + std::string(10000, 'a') + "\r\n\r\n";
  ASSERT_TRUE(client->SendRaw(request).ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 431);
  // The server is still healthy for the next connection.
  std::unique_ptr<HttpClient> next = MustConnect();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->Get("/healthz").value().status, 200);
}

TEST_F(HttpGatewayTest, TooManyHeadersAreRejectedWith431) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::string request = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 80; ++i) {
    request += "x-h" + std::to_string(i) + ": v\r\n";
  }
  request += "\r\n";
  ASSERT_TRUE(client->SendRaw(request).ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 431);
}

TEST_F(HttpGatewayTest, OversizedBodyIsRejectedWith413) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  // Announce a 2 MiB body; the server must reject on the declared length
  // without waiting for (or reading) the payload.
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/query HTTP/1.1\r\n"
                            "content-length: 2097152\r\n\r\n")
                  .ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 413);
}

TEST_F(HttpGatewayTest, TruncatedContentLengthIsATyped400) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  // Promise 100 bytes, deliver 10, then half-close: the server sees EOF
  // mid-body and must answer a typed 400, not hang or crash.
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/query HTTP/1.1\r\n"
                            "content-length: 100\r\n\r\n{\"oql\": \"")
                  .ok());
  client->ShutdownWrite();
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
}

TEST_F(HttpGatewayTest, NonNumericContentLengthIsATyped400) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/query HTTP/1.1\r\n"
                            "content-length: banana\r\n\r\n")
                  .ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
}

TEST_F(HttpGatewayTest, TransferEncodingIsATyped501) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/query HTTP/1.1\r\n"
                            "transfer-encoding: chunked\r\n\r\n")
                  .ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 501);
}

TEST_F(HttpGatewayTest, PipelinedGarbageAfterAValidRequestIsContained) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  // A valid request followed by line noise on the same connection: the
  // valid one is answered, the garbage earns a 400, the connection dies —
  // and only that connection.
  constexpr char kGarbage[] = "THIS IS NOT HTTP\0\r\nGARBAGE MORE\r\n\r\n";
  std::string raw = "GET /healthz HTTP/1.1\r\n\r\n";
  raw.append(kGarbage, sizeof(kGarbage) - 1);  // Keep the embedded NUL.
  ASSERT_TRUE(client->SendRaw(raw).ok());
  Result<HttpClient::Response> first = client->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);
  Result<HttpClient::Response> second = client->ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status, 400);

  std::unique_ptr<HttpClient> next = MustConnect();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->Get("/healthz").value().status, 200);
}

TEST_F(HttpGatewayTest, MalformedJsonCarriesCaretDiagnostics) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<HttpClient::Response> response =
      client->Post("/v1/query", "{\"oql\" \"missing colon\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
  // The error body carries the util/diag caret context pointing at the
  // offending byte — same diagnostics the binary protocol ships.
  EXPECT_NE(response.value().body.find("^"), std::string::npos)
      << response.value().body;
}

TEST_F(HttpGatewayTest, SlowLorisIsCutOffWithA408) {
  GatewayOptions gateway_options;
  gateway_options.limits.io_timeout_ms = 200;
  StartStack(net::ServerOptions(), nullptr, gateway_options);
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  // Start a request and then stall mid-header, forever.
  ASSERT_TRUE(client->SendRaw("POST /v1/query HTTP/1.1\r\ncontent-").ok());
  Result<HttpClient::Response> response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 408);
  // The stalled connection did not wedge the server.
  std::unique_ptr<HttpClient> next = MustConnect();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->Get("/healthz").value().status, 200);
}

TEST_F(HttpGatewayTest, UnknownPathsAndMethodsAreTyped) {
  StartStack();
  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->Get("/nope").value().status, 404);
  // Right path, wrong method.
  EXPECT_EQ(client->Get("/v1/query").value().status, 405);
  EXPECT_EQ(client->Post("/healthz", "{}").value().status, 405);
  // The connection survived all of it.
  EXPECT_EQ(client->Get("/healthz").value().status, 200);
}

// ------------------------------------------------------- router mounting

// A one-shard cluster is enough to prove the gateway speaks RouterServer:
// rows match the planning replica, DML is a typed 501, and the router's
// scatter counters surface in /metrics.
TEST_F(HttpGatewayTest, GatewayMountsOnTheRouterFrontEnd) {
  StartRouterStack(net::RouterServerOptions());

  Result<std::unique_ptr<HttpClient>> client =
      HttpClient::Connect("127.0.0.1", gateway_->port());
  ASSERT_TRUE(client.ok());
  Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(5));
  ASSERT_TRUE(local.ok());
  Result<HttpClient::Response> response =
      client.value()->Post("/v1/query", QueryBody(5));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  EXPECT_EQ(OidsOf(MustParse(response.value().body)), local.value().oids);

  // The scatter path is read-only; mutations are refused typed.
  Result<HttpClient::Response> dml = client.value()->Post(
      "/v1/dml", "{\"op\": \"create_object\", \"class\": \"Item0\"}");
  ASSERT_TRUE(dml.ok());
  EXPECT_EQ(dml.value().status, 501) << dml.value().body;

  Result<HttpClient::Response> metrics = client.value()->Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("uindex_router_queries_ok_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("uindex_scatter_subqueries_sent_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("uindex_admission_admitted_total"),
            std::string::npos);

  gateway_->Shutdown();
  front_->Shutdown();
  server_->Shutdown();
}

// Every front end counts a shed where its binary sheds land: an HTTP shed
// on the router mount raises the router's busy counter together with the
// shared gate's shed total.
TEST_F(HttpGatewayTest, RouterMountShedsCountInTheRouterFrontEnd) {
  exec::ThreadPool shard_pool(1);
  net::RouterServerOptions front_options;
  front_options.max_inflight_queries = 1;
  front_options.max_queued_queries = 0;
  StartRouterStack(front_options, &shard_pool);

  // Park the shard's only worker, so a scatter-gather holds the router's
  // single admission slot.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  shard_pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  Result<std::unique_ptr<net::Client>> binary =
      net::Client::Connect("127.0.0.1", front_->port());
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  Result<net::Client::QueryResult> parked = Status::NotFound("unset");
  std::thread blocked(
      [&] { parked = binary.value()->Query(PriceQuery(3)); });
  while (front_->admission().inflight() == 0) std::this_thread::yield();

  std::unique_ptr<HttpClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<HttpClient::Response> shed =
      client->Post("/v1/query", QueryBody(4));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 429) << shed.value().body;

  Result<HttpClient::Response> metrics = client->Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("uindex_router_busy_rejected_total 1\n"),
            std::string::npos)
      << metrics.value().body;
  EXPECT_NE(metrics.value().body.find("uindex_admission_shed_total 1\n"),
            std::string::npos)
      << metrics.value().body;
  EXPECT_EQ(front_->admission().shed_total(), 1u);
  EXPECT_EQ(front_->counters().busy_rejected.load(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
}

// ---------------------------------------------------- json parser (unit)

TEST(JsonParserTest, ParsesTheBasicShapes) {
  Result<json::Value> doc = json::Parse(
      "{\"a\": 1, \"b\": -2.5, \"c\": \"x\", \"d\": [true, false, null],"
      " \"e\": {\"nested\": \"yes\"}}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value& v = doc.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("a")->AsInt(), 1);
  EXPECT_TRUE(v.Find("a")->is_int());
  EXPECT_TRUE(v.Find("b")->is_double());
  EXPECT_DOUBLE_EQ(v.Find("b")->AsDouble(), -2.5);
  EXPECT_EQ(v.Find("c")->AsString(), "x");
  ASSERT_TRUE(v.Find("d")->is_array());
  ASSERT_EQ(v.Find("d")->items().size(), 3u);
  EXPECT_TRUE(v.Find("d")->items()[0].AsBool());
  EXPECT_TRUE(v.Find("d")->items()[2].is_null());
  EXPECT_EQ(v.Find("e")->Find("nested")->AsString(), "yes");
}

TEST(JsonParserTest, IntegerVersusDoubleIsSyntactic) {
  EXPECT_TRUE(json::Parse("[1]").value().items()[0].is_int());
  EXPECT_TRUE(json::Parse("[1.0]").value().items()[0].is_double());
  EXPECT_TRUE(json::Parse("[1e3]").value().items()[0].is_double());
  // int64 boundaries stay exact.
  EXPECT_EQ(json::Parse("[9223372036854775807]").value().items()[0].AsInt(),
            INT64_MAX);
  EXPECT_EQ(json::Parse("[-9223372036854775808]").value().items()[0].AsInt(),
            INT64_MIN);
}

TEST(JsonParserTest, StrictnessRejectsCommonLooseness) {
  EXPECT_FALSE(json::Parse("{\"a\": 1,}").ok());     // Trailing comma.
  EXPECT_FALSE(json::Parse("[1, 2,]").ok());
  EXPECT_FALSE(json::Parse("{'a': 1}").ok());        // Single quotes.
  EXPECT_FALSE(json::Parse("{a: 1}").ok());          // Bare key.
  EXPECT_FALSE(json::Parse("[01]").ok());            // Leading zero.
  EXPECT_FALSE(json::Parse("[+1]").ok());            // Leading plus.
  EXPECT_FALSE(json::Parse("[.5]").ok());            // Bare fraction.
  EXPECT_FALSE(json::Parse("[1] trailing").ok());    // Trailing bytes.
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{\"a\": 1 \"b\": 2}").ok());  // Missing comma.
}

TEST(JsonParserTest, DuplicateKeysAreRejected) {
  Result<json::Value> doc = json::Parse("{\"a\": 1, \"a\": 2}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("duplicate"), std::string::npos)
      << doc.status().message();
}

TEST(JsonParserTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(json::Parse(deep).ok());
  std::string fine;
  for (int i = 0; i < 30; ++i) fine += "[";
  for (int i = 0; i < 30; ++i) fine += "]";
  EXPECT_TRUE(json::Parse(fine).ok());
}

TEST(JsonParserTest, StringEscapesAndSurrogatePairs) {
  Result<json::Value> doc =
      json::Parse("[\"a\\n\\t\\\"\\\\b\", \"\\u0041\", \"\\uD83D\\uDE00\"]");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().items()[0].AsString(), "a\n\t\"\\b");
  EXPECT_EQ(doc.value().items()[1].AsString(), "A");
  EXPECT_EQ(doc.value().items()[2].AsString(), "\xF0\x9F\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_FALSE(json::Parse("[\"\\uD83D\"]").ok());
  // Raw control characters in strings are malformed.
  EXPECT_FALSE(json::Parse("[\"a\nb\"]").ok());
}

TEST(JsonParserTest, ErrorsCarryCaretContext) {
  Result<json::Value> doc = json::Parse("{\"oql\" \"missing colon\"}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("^"), std::string::npos)
      << doc.status().message();
}

TEST(JsonParserTest, QuotingRoundTrips) {
  std::string out;
  json::AppendQuoted(&out, "a\"b\\c\n\x01");
  Result<json::Value> doc = json::Parse("[" + out + "]");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().items()[0].AsString(), "a\"b\\c\n\x01");
}

}  // namespace
}  // namespace http
}  // namespace uindex
