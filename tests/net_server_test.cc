#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/client.h"
#include "net/conn.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/coding.h"
#include "util/framing.h"

namespace uindex {
namespace net {
namespace {

// A populated database behind an ephemeral-port server: Item root with 4
// subclasses, int hierarchy index on "price", 400 objects over 97 keys.
class NetServerTest : public ::testing::Test {
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

  void StartServer(ServerOptions options = ServerOptions(),
                   exec::ThreadPool* pool = nullptr) {
    Result<std::unique_ptr<Server>> server =
        Server::Start(db_.get(), options, pool);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<Client> MustConnect() {
    Result<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  static std::string PriceQuery(int key) {
    return "SELECT i FROM Item* i WHERE i.price = " + std::to_string(key);
  }

  static constexpr int kObjects = 400;
  static constexpr int kPrices = 97;
  std::unique_ptr<Database> db_;
  ClassId root_ = kInvalidClassId;
  std::vector<ClassId> subs_;
  std::unique_ptr<Server> server_;  // Destroyed before db_ (decl order).
};

TEST_F(NetServerTest, RemoteQueriesMatchInProcess) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  for (int key = 0; key < 20; ++key) {
    Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(key));
    ASSERT_TRUE(local.ok());
    Result<Client::QueryResult> remote = client->Query(PriceQuery(key));
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote.value().oids, local.value().oids);
    EXPECT_EQ(remote.value().count, local.value().count);
    EXPECT_EQ(remote.value().used_index, local.value().used_index);
    EXPECT_EQ(remote.value().plan, local.value().plan);
  }
  EXPECT_TRUE(client->Ping().ok());
  Result<Session::Stats> stats = client->SessionStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queries, 20u);
  EXPECT_EQ(stats.value().failed, 0u);
}

TEST_F(NetServerTest, ParseErrorsTravelWithCaretContext) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<Client::QueryResult> r =
      client->Query("SELECT i FORM Item* i WHERE i.price = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("at byte 9"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find('^'), std::string::npos);
  // The connection survives a query error.
  EXPECT_TRUE(client->Query(PriceQuery(1)).ok());
}

TEST_F(NetServerTest, MalformedFramePoisonsOnlyThatConnection) {
  StartServer();
  std::unique_ptr<Client> good = MustConnect();
  ASSERT_NE(good, nullptr);

  // Hostile connection 1: a well-framed payload full of garbage op bytes.
  {
    Result<std::unique_ptr<Conn>> conn =
        Conn::Dial("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value()->WriteFrame(Slice("\x7F garbage")).ok());
    std::string payload;
    Result<ReadOutcome> out = conn.value()->ReadFrame(&payload, 1 << 20, 2000);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value(), ReadOutcome::kFrame);
    Result<Response> resp = DecodeResponse(Slice(payload));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().op, Op::kError);
    // Poisoned: the server closes after the error.
    out = conn.value()->ReadFrame(&payload, 1 << 20, 2000);
    EXPECT_TRUE(!out.ok() || out.value() == ReadOutcome::kClosed);
  }

  // Hostile connection 2: a frame whose CRC does not match its payload.
  {
    Result<std::unique_ptr<Conn>> conn =
        Conn::Dial("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(conn.ok());
    std::string frame;
    AppendFrame(Slice(EncodePing()), &frame);
    frame[4] ^= 0x01;  // Flip a CRC bit.
    ASSERT_EQ(::send(conn.value()->fd(), frame.data(), frame.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    std::string payload;
    Result<ReadOutcome> out = conn.value()->ReadFrame(&payload, 1 << 20, 2000);
    // Best-effort kError, then close — either is a poisoned connection.
    if (out.ok() && out.value() == ReadOutcome::kFrame) {
      Result<Response> resp = DecodeResponse(Slice(payload));
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp.value().op, Op::kError);
    }
  }

  // Hostile connection 3: a header advertising an over-limit frame.
  {
    Result<std::unique_ptr<Conn>> conn =
        Conn::Dial("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(conn.ok());
    std::string header;
    PutFixed32(&header, kMaxRequestFrame + 1);
    PutFixed32(&header, 0);
    ASSERT_EQ(::send(conn.value()->fd(), header.data(), header.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(header.size()));
    std::string payload;
    Result<ReadOutcome> out = conn.value()->ReadFrame(&payload, 1 << 20, 2000);
    if (out.ok() && out.value() == ReadOutcome::kFrame) {
      Result<Response> resp = DecodeResponse(Slice(payload));
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp.value().op, Op::kError);
    }
  }

  // Hostile connection 4: torn frame — half a header, then hang up.
  {
    Result<std::unique_ptr<Conn>> conn =
        Conn::Dial("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(conn.ok());
    ASSERT_EQ(::send(conn.value()->fd(), "\x20\x00", 2, MSG_NOSIGNAL), 2);
    conn.value()->ShutdownBoth();
  }

  // The good connection is unaffected by all four.
  Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(5));
  ASSERT_TRUE(local.ok());
  Result<Client::QueryResult> remote = good->Query(PriceQuery(5));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.value().oids, local.value().oids);
  // All four hostile connections must register (poll: the last poisonings
  // may still be settling on their connection threads).
  for (int i = 0; i < 200; ++i) {
    if (server_->counters().protocol_errors.load() >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->counters().protocol_errors.load(), 4u);
}

TEST_F(NetServerTest, HelloVersionMismatchIsRejected) {
  StartServer();
  Result<std::unique_ptr<Conn>> conn =
      Conn::Dial("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(conn.ok());
  std::string hello;
  hello.push_back(static_cast<char>(Op::kHello));
  hello.append(kProtocolMagic, sizeof(kProtocolMagic));
  PutFixed32(&hello, kProtocolVersion + 7);
  ASSERT_TRUE(conn.value()->WriteFrame(Slice(hello)).ok());
  std::string payload;
  Result<ReadOutcome> out = conn.value()->ReadFrame(&payload, 1 << 20, 2000);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value(), ReadOutcome::kFrame);
  Result<Response> resp = DecodeResponse(Slice(payload));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().op, Op::kError);
  EXPECT_TRUE(ErrorResponseToStatus(resp.value()).IsInvalidArgument());
}

TEST_F(NetServerTest, AdmissionControlShedsWithTypedBusy) {
  // One worker, one in-flight slot, no wait queue. Block the worker so the
  // first query parks in the slot, then a second query must be shed.
  exec::ThreadPool pool(1);
  ServerOptions options;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 0;
  StartServer(options, &pool);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::unique_ptr<Client> first = MustConnect();
  std::unique_ptr<Client> second = MustConnect();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);

  Result<Client::QueryResult> first_result = Status::NotFound("unset");
  std::thread blocked([&] { first_result = first->Query(PriceQuery(3)); });
  // Wait until the first query holds the only in-flight slot. The pool
  // queue is no signal: it is non-empty while the blocker itself waits for
  // the worker, before the query has been admitted.
  while (server_->admission().inflight() == 0) std::this_thread::yield();

  Result<Client::QueryResult> shed = second->Query(PriceQuery(4));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_NE(shed.status().message().find("server busy"), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(server_->counters().busy_rejected.load(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocked.join();
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  // The server frees the slot only after the response is written, so the
  // client can hold the answer before the slot is back; wait for it.
  while (server_->admission().inflight() != 0) std::this_thread::yield();
  // The shed connection is still usable afterwards.
  EXPECT_TRUE(second->Query(PriceQuery(4)).ok());
}

TEST_F(NetServerTest, GracefulShutdownDrainsInFlightQueries) {
  exec::ThreadPool pool(1);
  ServerOptions options;
  options.max_inflight_queries = 1;
  StartServer(options, &pool);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::unique_ptr<Client> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Result<Client::QueryResult> in_flight = Status::NotFound("unset");
  std::thread query([&] { in_flight = client->Query(PriceQuery(7)); });
  while (server_->admission().inflight() == 0) std::this_thread::yield();

  std::atomic<bool> shutdown_done{false};
  std::thread shutdown([&] {
    server_->Shutdown();
    shutdown_done.store(true);
  });
  // Shutdown must wait for the admitted query to drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
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
  Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(7));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(in_flight.value().oids, local.value().oids);
  EXPECT_EQ(server_->active_connections(), 0u);

  // New connections are refused after shutdown.
  Result<std::unique_ptr<Client>> late =
      Client::Connect("127.0.0.1", server_->port(), 500);
  EXPECT_FALSE(late.ok());
}

TEST_F(NetServerTest, ConcurrentClientsGetConsistentAnswers) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 25;

  std::vector<std::vector<Oid>> expected(kPrices);
  for (int key = 0; key < kPrices; ++key) {
    Result<Database::OqlResult> local = db_->ExecuteOql(PriceQuery(key));
    ASSERT_TRUE(local.ok());
    expected[key] = local.value().oids;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Result<std::unique_ptr<Client>> client =
          Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int key = (t * 31 + q) % kPrices;
        Result<Client::QueryResult> r =
            client.value()->Query(PriceQuery(key));
        if (!r.ok() || r.value().oids != expected[key]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->counters().queries_ok.load(),
            static_cast<uint64_t>(kClients) * kQueriesPerClient);
}

}  // namespace
}  // namespace net
}  // namespace uindex
