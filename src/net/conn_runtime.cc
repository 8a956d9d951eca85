#include "net/conn_runtime.h"

#include <utility>

namespace uindex {
namespace net {

namespace {

// How often the accept loop wakes to check for shutdown and reap finished
// connection threads.
constexpr int kAcceptTickMs = 200;

}  // namespace

ConnRuntime::ConnRuntime(std::string name, size_t max_connections,
                         ConnCounters* counters, AdmissionGate* gate,
                         Framing framing)
    : name_(std::move(name)),
      max_connections_(max_connections),
      counters_(counters),
      gate_(gate),
      framing_(std::move(framing)) {}

Status ConnRuntime::Start(const std::string& host, uint16_t port) {
  UINDEX_RETURN_IF_ERROR(listener_.Open(host, port));
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnRuntime::AcceptLoop() {
  while (!draining()) {
    const int fd = listener_.AcceptOnce(kAcceptTickMs);
    Reap(/*all=*/false);
    if (fd < 0) continue;
    std::unique_ptr<Socket> socket = framing_.wrap(fd);
    if (counters_->active_connections.load(std::memory_order_relaxed) >=
        max_connections_) {
      counters_->busy_rejected.fetch_add(1, std::memory_order_relaxed);
      framing_.reject(socket.get());
      continue;  // `socket` closes here.
    }
    counters_->accepted.fetch_add(1, std::memory_order_relaxed);
    counters_->active_connections.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      framing_.serve(raw->socket.get());
      // The peer sees the close now; the fd itself lives until the reap.
      raw->socket->ShutdownBoth();
      counters_->active_connections.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void ConnRuntime::Reap(bool all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.remove_if([all](const std::unique_ptr<Connection>& conn) {
    if (!all && !conn->done.load(std::memory_order_acquire)) return false;
    if (conn->thread.joinable()) conn->thread.join();
    return true;
  });
}

bool ConnRuntime::BeginRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load(std::memory_order_relaxed)) return false;
  ++inflight_;
  return true;
}

void ConnRuntime::EndRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--inflight_ == 0) drained_.notify_all();
}

Status ConnRuntime::ShuttingDown() const {
  return Status::ResourceExhausted(name_ + " shutting down");
}

Status ConnRuntime::Admit() {
  switch (gate_->Admit()) {
    case AdmissionGate::Outcome::kAdmitted:
      return Status::OK();
    case AdmissionGate::Outcome::kBusy:
      counters_->busy_rejected.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(std::string("busy: ") + kShedMessage);
    case AdmissionGate::Outcome::kShuttingDown:
      break;
  }
  return ShuttingDown();
}

void ConnRuntime::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // 1. Refuse new work: no new connections, no new requests, and queued
    //    admission waiters wake and bail.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_.store(true, std::memory_order_release);
    }
    if (gate_ != nullptr) gate_->BeginShutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.Close();
    // 2. Drain: every request already read gets its response written.
    {
      std::unique_lock<std::mutex> lock(mu_);
      drained_.wait(lock, [this] { return inflight_ == 0; });
    }
    if (gate_ != nullptr) gate_->WaitDrained();
    // 3. Tear down: unblock readers parked between requests, then join.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) conn->socket->ShutdownBoth();
    }
    Reap(/*all=*/true);
  });
}

ConnRuntime::Framing WireFraming(int io_timeout_ms,
                                 std::function<void(Conn*)> serve) {
  ConnRuntime::Framing framing;
  framing.wrap = [io_timeout_ms](int fd) -> std::unique_ptr<Socket> {
    auto conn = std::make_unique<Conn>(fd);
    conn->set_io_timeout_ms(io_timeout_ms);
    return conn;
  };
  framing.reject = [](Socket* conn) {
    static_cast<Conn*>(conn)->WriteFrame(
        Slice(EncodeBusy("too many connections")));
  };
  framing.serve = [serve = std::move(serve)](Socket* conn) {
    serve(static_cast<Conn*>(conn));
  };
  return framing;
}

void ServeWire(ConnRuntime* runtime, Conn* conn, int idle_timeout_ms,
               const Session::Stats& stats,
               std::atomic<uint64_t>& protocol_errors,
               const std::function<bool(const Request&)>& dispatch) {
  // Answers one decoded frame; false closes the connection.
  auto answer = [&](const std::string& payload) {
    Result<Request> request = DecodeRequest(Slice(payload));
    if (!request.ok()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn->WriteFrame(Slice(EncodeError(request.status())));
      return false;
    }
    switch (request.value().op) {
      case Op::kHello:
        if (request.value().version != kProtocolVersion) {
          conn->WriteFrame(Slice(EncodeError(Status::InvalidArgument(
              "protocol version mismatch: client " +
              std::to_string(request.value().version) + ", server " +
              std::to_string(kProtocolVersion)))));
          return false;
        }
        return conn->WriteFrame(Slice(EncodeWelcome())).ok();
      case Op::kPing:
        return conn->WriteFrame(Slice(EncodePong())).ok();
      case Op::kSessionStats:
        return conn->WriteFrame(Slice(EncodeStats(stats))).ok();
      case Op::kGoodbye:
        return false;
      default:
        return dispatch(request.value());
    }
  };

  std::string payload;
  for (;;) {
    Result<ReadOutcome> outcome =
        conn->ReadFrame(&payload, kMaxRequestFrame, idle_timeout_ms);
    if (!outcome.ok()) {
      // Torn frame, CRC mismatch, oversize, or mid-frame stall: poison this
      // connection only — best-effort error, then close.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn->WriteFrame(Slice(EncodeError(outcome.status())));
      return;
    }
    if (outcome.value() != ReadOutcome::kFrame) return;  // closed or idle
    if (!runtime->BeginRequest()) {
      conn->WriteFrame(Slice(EncodeError(runtime->ShuttingDown())));
      return;
    }
    const bool keep = answer(payload);
    runtime->EndRequest();
    if (!keep) return;
  }
}

std::string EncodeFailure(const Status& status) {
  return IsShed(status) ? EncodeBusy(kShedMessage) : EncodeError(status);
}

}  // namespace net
}  // namespace uindex
