// The connection runtime (src/net/conn_runtime.h) behind all three front
// ends: one scenario per property, run against net::Server (typed kBusy),
// net::RouterServer (typed kBusy) and http::HttpGateway (typed 503).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "db/database.h"
#include "http/backend.h"
#include "http/gateway.h"
#include "http/http_client.h"
#include "net/client.h"
#include "net/router.h"
#include "net/router_server.h"
#include "net/server.h"
#include "net/shard_map.h"

namespace uindex {
namespace net {
namespace {

enum class FrontEnd { kServer, kRouter, kGateway };

std::string FrontEndName(const ::testing::TestParamInfo<FrontEnd>& info) {
  switch (info.param) {
    case FrontEnd::kServer:
      return "Server";
    case FrontEnd::kRouter:
      return "RouterServer";
    case FrontEnd::kGateway:
      return "HttpGateway";
  }
  return "Unknown";
}

// Starts the front end under test with a one-connection cap, plus what it
// needs behind it: a net::Server over a one-class database (the router's
// single shard, the gateway's backend).
class ConnectionCapTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateClass("Item").ok());
    ServerOptions server_options;
    if (GetParam() == FrontEnd::kServer) server_options.max_connections = 1;
    Result<std::unique_ptr<Server>> server =
        Server::Start(db_.get(), server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();

    if (GetParam() == FrontEnd::kRouter) {
      ShardMap map;
      map.version = 1;
      ShardMap::Entry entry;
      entry.lo = "";
      entry.host = "127.0.0.1";
      entry.port = server_->port();
      map.entries.push_back(entry);
      ASSERT_TRUE(server_->InstallShard(map, 0).ok());
      Result<std::unique_ptr<Router>> router =
          Router::Create(map, db_.get(), RouterOptions());
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      router_ = std::move(router).value();
      RouterServerOptions options;
      options.max_connections = 1;
      Result<std::unique_ptr<RouterServer>> front =
          RouterServer::Start(router_.get(), options);
      ASSERT_TRUE(front.ok()) << front.status().ToString();
      router_server_ = std::move(front).value();
    }
    if (GetParam() == FrontEnd::kGateway) {
      backend_ = std::make_unique<http::ServerBackend>(server_.get());
      http::GatewayOptions options;
      options.max_connections = 1;
      Result<std::unique_ptr<http::HttpGateway>> gateway =
          http::HttpGateway::Start(backend_.get(), options);
      ASSERT_TRUE(gateway.ok()) << gateway.status().ToString();
      gateway_ = std::move(gateway).value();
    }
  }

  uint16_t port() const {
    switch (GetParam()) {
      case FrontEnd::kServer:
        return server_->port();
      case FrontEnd::kRouter:
        return router_server_->port();
      case FrontEnd::kGateway:
        return gateway_->port();
    }
    return 0;
  }

  const ConnCounters& counters() const {
    switch (GetParam()) {
      case FrontEnd::kServer:
        return server_->counters();
      case FrontEnd::kRouter:
        return router_server_->counters();
      case FrontEnd::kGateway:
        return gateway_->counters();
    }
    return server_->counters();
  }

  // Opens a connection and proves the front end serves it with one round
  // trip; null on failure. Resetting the handle closes the connection.
  std::shared_ptr<void> OpenServed() {
    if (GetParam() == FrontEnd::kGateway) {
      Result<std::unique_ptr<http::HttpClient>> client =
          http::HttpClient::Connect("127.0.0.1", port());
      EXPECT_TRUE(client.ok()) << client.status().ToString();
      if (!client.ok()) return nullptr;
      Result<http::HttpClient::Response> health =
          client.value()->Get("/healthz");
      EXPECT_TRUE(health.ok()) << health.status().ToString();
      if (!health.ok() || health.value().status != 200) return nullptr;
      return std::shared_ptr<void>(std::move(client).value());
    }
    Result<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) return nullptr;
    return std::shared_ptr<void>(std::move(client).value());
  }

  // Connects past the cap: the front end must answer with its framing's
  // typed rejection before closing.
  void ExpectTypedReject() {
    if (GetParam() == FrontEnd::kGateway) {
      Result<std::unique_ptr<http::HttpClient>> client =
          http::HttpClient::Connect("127.0.0.1", port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      // The rejection is written unprompted, right after the accept.
      Result<http::HttpClient::Response> reject =
          client.value()->ReadResponse();
      ASSERT_TRUE(reject.ok()) << reject.status().ToString();
      EXPECT_EQ(reject.value().status, 503);
      EXPECT_NE(reject.value().body.find("too many connections"),
                std::string::npos)
          << reject.value().body;
      return;
    }
    Result<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", port());
    ASSERT_FALSE(client.ok());
    EXPECT_TRUE(client.status().IsResourceExhausted())
        << client.status().ToString();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<RouterServer> router_server_;
  std::unique_ptr<http::ServerBackend> backend_;
  std::unique_ptr<http::HttpGateway> gateway_;  // Torn down first.
};

TEST_P(ConnectionCapTest, RejectsTypedAndFreesTheSlotOnClose) {
  std::shared_ptr<void> first = OpenServed();
  ASSERT_NE(first, nullptr);
  ExpectTypedReject();
  // Every front end counts a cap reject the same way.
  EXPECT_EQ(counters().busy_rejected.load(), 1u);
  // Closing the first frees the slot (poll until the runtime reaps it).
  first.reset();
  for (int i = 0; i < 100; ++i) {
    if (counters().active_connections.load() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(OpenServed(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, ConnectionCapTest,
                         ::testing::Values(FrontEnd::kServer,
                                           FrontEnd::kRouter,
                                           FrontEnd::kGateway),
                         FrontEndName);

}  // namespace
}  // namespace net
}  // namespace uindex
