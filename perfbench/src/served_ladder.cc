// served_ladder: the vehicle_mixed dataset behind net::Server and the
// HTTP gateway, driven by an open loop at three fixed offered rates.
//
// Four sender threads hold one connection each. Senders 0 and 1 use the
// binary protocol and sender 2 uses HTTP; they carry the reads, 30 % of
// the ops each. Sender 3 uses HTTP and carries every DML (the binary
// protocol has no DML), 10 % of the ops, so the mix is 9 reads to 1 write
// as in vehicle_mixed. Keeping DML on its own connection means no read
// waits behind a write on its connection, so read latency shows the
// server, not head-of-line blocking in the client. The re-key DML changes
// a president's Age: HTTP carries only integer and string values, so it
// cannot switch a reference.
//
// Each sender sends on its own schedule, interleaved with the others,
// whatever the replies are doing, and every latency is timed from the
// request's scheduled send. A connection still busy when a request falls
// due delays it, and that delay counts. A request whose wait already
// exceeds its latency limit is not sent and counts as a miss. The
// generator's own lateness (a send leaving after its schedule while its
// connection was idle) is reported per step; a step in which it exceeds
// kMaxSendLagUs at p99 is marked invalid and its metrics are left out. An
// untraced ladder whose mid or high step is invalid, the steps the gated
// metrics come from, is set aside and run again; a run whose every attempt
// is invalid ends without a result.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/session.h"
#include "harness.h"
#include "http/backend.h"
#include "http/gateway.h"
#include "http/http_client.h"
#include "net/client.h"
#include "net/server.h"
#include "util/json.h"
#include "vehicle_data.h"

namespace perfbench {
namespace {

using uindex::Oid;

constexpr int kSenders = 4;
constexpr int kBinarySenders = 2;
constexpr int kDmlSender = 3;
// Share of the offered rate each sender carries.
constexpr double kSenderShare[kSenders] = {0.3, 0.3, 0.3, 0.1};
constexpr size_t kServerWorkers = 4;

// The ladder, in offered operations per second over all senders, and the
// share of the run each step takes. `low` and `mid` sit well under the
// capacity of the seed commit on a 4-core host; `high` is above the DML
// connection's capacity, while reads keep up. At `mid` the DML
// connection carries 30 writes per second; every third one re-keys about
// 200 path entries and takes tens of milliseconds, so at twice that rate
// writes already queue behind each other and their latency follows the
// host's speed more than the commit path's. `mid` takes most of the run,
// as the gated latencies come from it.
struct Step {
  const char* name;
  double rate;
  double share;
};
constexpr Step kSteps[] = {{"low", 100, 0.1}, {"mid", 300, 0.7},
                           {"high", 4000, 0.2}};
constexpr int kStepCount = 3;
constexpr int kMidStep = 1;
constexpr int kHighStep = 2;

// Latency limits for ok_qps: a request answered OK later than its class's
// limit, failed, shed or not sent counts as a miss.
constexpr double kReadLimitUs = 25000;
constexpr double kWriteLimitUs = 100000;
// A step whose sends left later than this at p99 is invalid: with half
// the read limit gone before a send, whether a read makes its limit is up
// to the generator rather than the server. Below it lie the wake-up delays
// of a shared host, where a virtual processor can stall for milliseconds.
constexpr double kMaxSendLagUs = kReadLimitUs / 2;
// Untraced ladders run before a run gives up on an invalid gated step.
constexpr int kLadderAttempts = 3;
// A sender sleeps until this much before a send falls due, then spins: a
// sleeping thread can wake late, and that lateness would count against the
// server. Longer spins cost more than they save: four spinning senders
// take processor time from the server threads they wait on.
constexpr auto kSpin = std::chrono::microseconds(200);

struct StepResult {
  Windowed read_us, write_us, ok;  // ok: answered OK within the limit.
  LatencyRecorder send_lag_us;
  // Reads by front end (0 binary, 1 HTTP) and kind.
  LatencyRecorder read_by_kind[2][kReadKinds];
  uint64_t sent = 0, ok_in_limit = 0, late_skipped = 0, shed = 0,
           errors = 0, scheduled = 0;
  double seconds = 0;

  void Merge(const StepResult& o) {
    read_us.Merge(o.read_us);
    write_us.Merge(o.write_us);
    ok.Merge(o.ok);
    send_lag_us.Merge(o.send_lag_us);
    for (int f = 0; f < 2; ++f) {
      for (int k = 0; k < kReadKinds; ++k) {
        read_by_kind[f][k].Merge(o.read_by_kind[f][k]);
      }
    }
    sent += o.sent;
    ok_in_limit += o.ok_in_limit;
    late_skipped += o.late_skipped;
    shed += o.shed;
    errors += o.errors;
    scheduled += o.scheduled;
  }
};

/// A parsed /v1/query body's oid list.
bool OidsOf(const std::string& body, std::vector<Oid>* out) {
  uindex::Result<uindex::json::Value> doc = uindex::json::Parse(body);
  if (!doc.ok()) return false;
  const uindex::json::Value* oids = doc.value().Find("oids");
  if (oids == nullptr || !oids->is_array()) return false;
  out->clear();
  for (const uindex::json::Value& v : oids->items()) {
    if (!v.is_int()) return false;
    out->push_back(static_cast<Oid>(v.AsInt()));
  }
  return true;
}

std::string QueryBody(const std::string& oql) {
  return "{\"oql\": \"" + oql + "\"}";
}

std::string DmlBody(const VehicleDb& vdb, const VehicleWrite& w) {
  const VehicleModel& m = vdb.model();
  std::string body = "{\"op\": \"set_attr\", \"oid\": ";
  switch (w.kind) {
    case 0:
      return body + std::to_string(m.veh_oid[w.target]) +
             ", \"attr\": \"Color\", \"value\": \"" +
             kVehicleColors[w.value] + "\"}";
    case 1:
      return body + std::to_string(m.veh_oid[w.target]) +
             ", \"attr\": \"Mileage\", \"value\": " + std::to_string(w.value) +
             "}";
    default:
      return body + std::to_string(m.emp_oid[w.target]) +
             ", \"attr\": \"Age\", \"value\": " + std::to_string(w.value) +
             "}";
  }
}

/// The served stack over one loaded database.
struct Served {
  std::unique_ptr<VehicleDb> vdb;
  std::unique_ptr<uindex::net::Server> server;
  std::unique_ptr<uindex::http::ServerBackend> backend;
  std::unique_ptr<uindex::http::HttpGateway> gateway;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (gateway != nullptr) gateway->Shutdown();
    if (server != nullptr) server->Shutdown();
    gateway.reset();
    backend.reset();
    server.reset();
    vdb.reset();
  }
};

std::unique_ptr<Served> StartServed(const Args& args, int attempt,
                                    std::vector<double>* per_object_us,
                                    Report* report) {
  auto served = std::make_unique<Served>();
  served->vdb = VehicleDb::Build(args, attempt, per_object_us, report);
  if (served->vdb == nullptr) return nullptr;
  uindex::net::ServerOptions options;
  options.worker_threads = kServerWorkers;
  auto server = uindex::net::Server::Start(&served->vdb->db(), options);
  if (!server.ok()) {
    report->Fail("server: " + server.status().ToString());
    return nullptr;
  }
  served->server = std::move(server).value();
  served->backend =
      std::make_unique<uindex::http::ServerBackend>(served->server.get());
  auto gateway = uindex::http::HttpGateway::Start(
      served->backend.get(), uindex::http::GatewayOptions{});
  if (!gateway.ok()) {
    report->Fail("gateway: " + gateway.status().ToString());
    return nullptr;
  }
  served->gateway = std::move(gateway).value();
  return served;
}

/// One sender's connection and its op stream, kept across steps.
struct Sender {
  int index = 0;
  Rng rng{0};
  uint64_t op_no = 0, read_no = 0, write_no = 0;
  std::vector<uint32_t> presidents;  // Re-key targets (DML sender).
  std::unique_ptr<uindex::net::Client> binary;
  std::unique_ptr<uindex::http::HttpClient> http;
};

/// Runs one step of one sender: ops at `start + offset + j * period` until
/// `end`, where the period follows from the sender's share of `rate`. DML
/// acknowledged OK is mirrored into the model.
void RunSenderStep(Served* served, Sender* s, Clock::time_point start,
                   Clock::time_point end, double rate, Tracer* tracer,
                   StepResult* r) {
  std::unique_ptr<Tracer::Buffer> buf;
  if (tracer != nullptr) buf = std::make_unique<Tracer::Buffer>(tracer);
  VehicleDb& vdb = *served->vdb;
  const Clock::duration period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / (rate * kSenderShare[s->index])));
  const Clock::duration offset = period * s->index / kSenders;
  Clock::time_point prev_done = start;
  for (int64_t j = 0;; ++j) {
    const Clock::time_point due = start + offset + period * j;
    if (due >= end) break;
    ++r->scheduled;
    const uint64_t i = s->op_no++;
    const uint64_t request = (static_cast<uint64_t>(s->index) << 48) | i;
    const bool write = s->index == kDmlSender;
    VehicleWrite w;
    std::string oql;
    int read_kind = 0;
    if (write) {
      w.kind = static_cast<int>(s->write_no++ % kWriteKinds);
      if (w.kind == 2) {
        w.target = s->presidents[s->rng.Uniform(s->presidents.size())];
        w.value = kMinAge +
                  static_cast<int64_t>(s->rng.Uniform(kMaxAge - kMinAge + 1));
      } else {
        w.target = static_cast<uint32_t>(s->rng.Uniform(kVehicles));
        w.value = w.kind == 0
                      ? static_cast<int64_t>(s->rng.Uniform(kVehicleColorCount))
                      : static_cast<int64_t>(s->rng.Uniform(200000));
      }
    } else {
      read_kind = static_cast<int>(s->read_no++ % kReadKinds);
      oql = vdb.Oql(vdb.MakeRead(read_kind, s->rng));
    }
    const double limit = write ? kWriteLimitUs : kReadLimitUs;
    Clock::time_point now = Clock::now();
    if (now < due) {
      if (due - now > kSpin) std::this_thread::sleep_until(due - kSpin);
      while ((now = Clock::now()) < due) {
      }
    } else if (UsBetween(due, now) > limit) {
      ++r->late_skipped;  // Would miss its limit before it is even sent.
      continue;
    }
    r->send_lag_us.Record(UsBetween(std::max(due, prev_done), now));
    bool ok = false, shed = false;
    {
      Tracer::Scope root(buf.get(), write ? "op.write" : "op.read", request);
      if (write) {
        Tracer::Scope span(buf.get(), "http.dml", request);
        auto resp = s->http->Post("/v1/dml", DmlBody(vdb, w));
        ok = resp.ok() && resp.value().status == 200;
        shed = resp.ok() && resp.value().status == 429;
      } else if (s->binary != nullptr) {
        Tracer::Scope span(buf.get(), "net.query", request);
        auto resp = s->binary->Query(oql);
        ok = resp.ok();
        shed = !ok && resp.status().IsResourceExhausted();
      } else {
        Tracer::Scope span(buf.get(), "http.query", request);
        auto resp = s->http->Post("/v1/query", QueryBody(oql));
        ok = resp.ok() && resp.value().status == 200;
        shed = resp.ok() && resp.value().status == 429;
      }
    }
    prev_done = Clock::now();
    const double us = UsBetween(due, prev_done);
    ++r->sent;
    if (ok) {
      (write ? r->write_us : r->read_us).Add(prev_done, us);
      if (!write) {
        r->read_by_kind[s->binary == nullptr ? 1 : 0][read_kind].Record(us);
      }
      if (us <= limit) {
        ++r->ok_in_limit;
        r->ok.Count(prev_done);
      }
      if (write) vdb.ApplyToModel(w, /*rekey_as_age=*/true);
    } else if (shed) {
      ++r->shed;
    } else {
      ++r->errors;
      std::fprintf(stderr, "sender %d: request failed\n", s->index);
      return;
    }
  }
}

/// Runs the three steps over `seconds`; returns per-step results.
std::vector<StepResult> RunLadder(Served* served,
                                  std::vector<Sender>* senders,
                                  double seconds, Tracer* tracer) {
  std::vector<StepResult> out(kStepCount);
  for (int st = 0; st < kStepCount; ++st) {
    const Step& step = kSteps[st];
    const double step_s = seconds * step.share;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(step_s));
    std::vector<StepResult> per(kSenders);
    for (StepResult& p : per) {
      p.read_us = p.write_us = p.ok = Windowed(start, step_s);
    }
    out[st].read_us = out[st].write_us = out[st].ok =
        Windowed(start, step_s);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSenders; ++i) {
      threads.emplace_back(RunSenderStep, served, &(*senders)[i], start, end,
                           step.rate, tracer, &per[i]);
    }
    for (std::thread& t : threads) t.join();
    for (const StepResult& p : per) out[st].Merge(p);
    out[st].seconds = UsSince(start) / 1e6;
  }
  return out;
}

/// Every distinct read over the wire, over HTTP and in process must give
/// the model's rows. Returns false after reporting a mismatch.
bool CheckIdentity(Served* served, Sender* wire, Sender* web,
                   Report* report) {
  VehicleDb& vdb = *served->vdb;
  uindex::Session session(&vdb.db());
  for (const VehicleRead& r : vdb.DistinctReads()) {
    const std::string oql = vdb.Oql(r);
    const std::vector<Oid> want = vdb.Answer(r);
    auto local = session.ExecuteOql(oql);
    auto remote = wire->binary->Query(oql);
    auto http = web->http->Post("/v1/query", QueryBody(oql));
    std::vector<Oid> http_oids;
    report->Attempt(3);
    if (!local.ok() || !remote.ok() || !http.ok() ||
        http.value().status != 200 || !OidsOf(http.value().body, &http_oids)) {
      report->Failed();
      report->Fail("identity check: a call failed for " + oql);
      return false;
    }
    if (local.value().oids != want || remote.value().oids != want ||
        http_oids != want) {
      report->Fail("wire, HTTP, session and model rows differ for " + oql);
      return false;
    }
  }
  return true;
}

/// Unloaded per-call cost of each front end over the in-process call.
void ProbeOverheads(Served* served, Sender* wire, Sender* web,
                    Report* report) {
  constexpr int kReps = 3;
  VehicleDb& vdb = *served->vdb;
  uindex::Session session(&vdb.db());
  LatencyRecorder local_us, net_us, http_us;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const VehicleRead& r : vdb.DistinctReads()) {
      const std::string oql = vdb.Oql(r);
      Clock::time_point t0 = Clock::now();
      bool ok = session.ExecuteOql(oql).ok();
      local_us.Record(UsSince(t0));
      t0 = Clock::now();
      ok = wire->binary->Query(oql).ok() && ok;
      net_us.Record(UsSince(t0));
      t0 = Clock::now();
      auto resp = web->http->Post("/v1/query", QueryBody(oql));
      http_us.Record(UsSince(t0));
      if (!ok || !resp.ok() || resp.value().status != 200) {
        report->Fail("overhead probe: a call failed for " + oql);
        return;
      }
    }
  }
  report->Metric("net.overhead_us",
                 net_us.PercentileUs(50) - local_us.PercentileUs(50), "us",
                 static_cast<int64_t>(net_us.Count()));
  report->Metric("http.overhead_us",
                 http_us.PercentileUs(50) - local_us.PercentileUs(50), "us",
                 static_cast<int64_t>(http_us.Count()));
}

/// A step is invalid when the generator, not the server, held sends back:
/// sends left late by more than kMaxSendLagUs at p99 while their
/// connection was idle.
bool Invalid(const StepResult& r) {
  return r.send_lag_us.PercentileUs(99) > kMaxSendLagUs;
}

/// True when a step the gated metrics come from (mid, high) is invalid.
bool GatedStepInvalid(const std::vector<StepResult>& steps) {
  return Invalid(steps[kMidStep]) || Invalid(steps[kHighStep]);
}

/// Notes each step's counts and send lag; returns the invalid steps.
int ReportSteps(const std::vector<StepResult>& steps, const char* tag,
                Report* report) {
  int invalid = 0;
  for (int st = 0; st < kStepCount; ++st) {
    const StepResult& r = steps[st];
    const double lag_p99 = r.send_lag_us.PercentileUs(99);
    if (Invalid(r)) ++invalid;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%sstep %s: offered %.0f ops/s for %.2f s, scheduled %llu, sent "
        "%llu, ok within limit %llu, late-skipped %llu, shed %llu, "
        "send lag p99 %.1f us%s",
        tag, kSteps[st].name, kSteps[st].rate, r.seconds,
        static_cast<unsigned long long>(r.scheduled),
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.ok_in_limit),
        static_cast<unsigned long long>(r.late_skipped),
        static_cast<unsigned long long>(r.shed), lag_p99,
        Invalid(r) ? " INVALID: the generator fell behind" : "");
    report->Note(buf);
  }
  return invalid;
}

}  // namespace

void RunServedLadder(const Args& args, Report* report) {
  std::vector<double> setup_s, per_object_us;
  std::unique_ptr<Served> served;
  for (int attempt = 0; attempt < kVehicleSetups; ++attempt) {
    served.reset();
    const Clock::time_point t0 = Clock::now();
    served = StartServed(args, attempt,
                         attempt == kVehicleSetups - 1 ? &per_object_us
                                                       : nullptr,
                         report);
    if (served == nullptr) return;
    setup_s.push_back(UsSince(t0) / 1e6);
  }
  VehicleDb& vdb = *served->vdb;
  const double index_pages = static_cast<double>(vdb.db().live_pages());
  int64_t serial_reads = 0;
  const double pages_per_read =
      SerialPagesPerRead(&vdb, &serial_reads, report);
  if (!report->correct()) return;

  // Senders: connections and op streams.
  std::vector<Sender> senders(kSenders);
  const std::vector<uint32_t> presidents = vdb.Presidents();
  const uint16_t net_port = served->server->port();
  const uint16_t http_port = served->gateway->port();
  for (int i = 0; i < kSenders; ++i) {
    Sender& s = senders[i];
    s.index = i;
    s.rng = Rng(args.seed * 7919ull + static_cast<uint64_t>(i));
    if (i < kBinarySenders) {
      auto c = uindex::net::Client::Connect("127.0.0.1", net_port);
      if (!c.ok()) {
        report->Fail("connect: " + c.status().ToString());
        return;
      }
      s.binary = std::move(c).value();
    } else {
      auto c = uindex::http::HttpClient::Connect("127.0.0.1", http_port);
      if (!c.ok()) {
        report->Fail("connect: " + c.status().ToString());
        return;
      }
      s.http = std::move(c).value();
      if (i == kDmlSender) s.presidents = presidents;
    }
  }
  if (!CheckIdentity(served.get(), &senders[0], &senders[kBinarySenders],
                     report)) {
    return;
  }

  const uindex::net::AdmissionGate& gate = served->server->admission();
  const uint64_t shed0 = gate.shed_total(), admitted0 = gate.admitted_total();
  Tracer tracer;
  std::vector<StepResult> main_steps, traced_steps, discarded;
  IoDelta traced_io;
  if (!args.trace) {
    // The gated metrics come from the mid and high steps. When the
    // generator fell behind in either, that ladder is set aside and run
    // again, so the gate never sees a figure the generator limited.
    for (int attempt = 1;; ++attempt) {
      main_steps = RunLadder(served.get(), &senders, args.seconds, nullptr);
      if (!GatedStepInvalid(main_steps) || attempt == kLadderAttempts) break;
      ReportSteps(main_steps, "set-aside ", report);
      discarded.insert(discarded.end(), main_steps.begin(), main_steps.end());
    }
  } else {
    main_steps = RunLadder(served.get(), &senders, args.seconds / 2, nullptr);
    const uindex::IoStats before = vdb.db().buffers().stats();
    traced_steps =
        RunLadder(served.get(), &senders, args.seconds / 2, &tracer);
    traced_io = IoDelta::Between(before, vdb.db().buffers().stats());
  }
  StepResult total;
  for (const StepResult& r : main_steps) total.Merge(r);
  for (const StepResult& r : traced_steps) total.Merge(r);
  for (const StepResult& r : discarded) total.Merge(r);
  report->Attempt(total.scheduled);
  if (total.errors != 0) {
    report->Failed(total.errors);
    report->Fail("open loop: a request failed");
    return;
  }
  // Quiesced: the model now holds every DML acknowledged OK.
  if (!CheckIdentity(served.get(), &senders[0], &senders[kBinarySenders],
                     report)) {
    return;
  }
  int invalid = ReportSteps(main_steps, "", report);
  const StepResult& low = main_steps[0];
  const StepResult& mid = main_steps[kMidStep];
  const StepResult& high = main_steps[kHighStep];
  if (!args.trace && GatedStepInvalid(main_steps)) {
    report->Invalidate("the generator fell behind at a gated ladder step in "
                       "every attempt");
    return;
  }
  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report->Metric("index_pages", index_pages, "pages");
  report->Metric("pages_per_read", pages_per_read, "pages", serial_reads);
  report->Percentile("read_p50_us", mid.read_us, 50);
  report->Percentile("read_p90_us", mid.read_us, 90);
  report->Percentile("read_p99_us", mid.read_us, 99);
  report->Percentile("write_p50_us", mid.write_us, 50);
  report->Percentile("write_p90_us", mid.write_us, 90);
  report->Metric("ops_per_s", high.ok.Rate(), "ops/s",
                 static_cast<int64_t>(high.scheduled));
  report->Metric(
      "failed_ratio",
      Ratio(static_cast<double>(total.errors + total.shed +
                                total.late_skipped),
            static_cast<double>(total.scheduled)),
      "ratio", static_cast<int64_t>(total.scheduled));
  // Metrics of an invalid step are left out rather than reported.
  if (!Invalid(low)) report->Percentile("read_p99_us.low", low.read_us, 99);
  if (!Invalid(high)) {
    report->Percentile("read_p99_us.high", high.read_us, 99);
  }
  for (int st = 0; st < kStepCount; ++st) {
    const StepResult& r = main_steps[st];
    if (Invalid(r)) continue;
    report->Metric(std::string("ok_qps.") + kSteps[st].name, r.ok.Rate(),
                   "ops/s", static_cast<int64_t>(r.scheduled));
    report->Percentile(std::string("detail.read_p50_us.") + kSteps[st].name,
                       r.read_us, 50);
    report->Percentile(std::string("detail.write_p50_us.") + kSteps[st].name,
                       r.write_us, 50);
    if (st != kMidStep) continue;
    for (int f = 0; f < 2; ++f) {
      for (int k = 0; k < kReadKinds; ++k) {
        report->Percentile(std::string("detail.read_p50_us.mid.") +
                               (f == 0 ? "net" : "http") + ".kind" +
                               std::to_string(k),
                           r.read_by_kind[f][k], 50);
      }
    }
  }
  if (!args.trace) return;

  invalid += ReportSteps(traced_steps, "traced ", report);
  double reads = 0, writes = 0;
  for (const StepResult& r : traced_steps) {
    reads += static_cast<double>(r.read_us.size());
    writes += static_cast<double>(r.write_us.size());
  }
  const IoDelta& io = traced_io;
  report->Metric("storage.pages_cow_per_write", Ratio(io.pages_cow, writes),
                 "count");
  report->Metric("storage.epochs_per_write",
                 Ratio(io.epochs_published, writes), "count");
  report->Metric("btree.parse_ratio",
                 Ratio(io.nodes_parsed, io.nodes_parsed + io.node_cache_hits),
                 "ratio");
  report->Metric("btree.bytes_decoded_per_read",
                 Ratio(io.bytes_decoded, reads), "bytes");
  report->Metric("db.commit_batch_size",
                 Ratio(io.commit_records, io.commit_batches), "count");
  report->Metric("db.syncs_per_write", Ratio(io.commit_batches, writes),
                 "count");
  report->Metric("net.admission_shed",
                 static_cast<double>(gate.shed_total() - shed0), "count");
  report->Metric("net.admitted",
                 static_cast<double>(gate.admitted_total() - admitted0),
                 "count");
  StepResult lag;
  for (const StepResult& r : main_steps) lag.Merge(r);
  report->Percentile("harness.send_lag_us_p99", lag.send_lag_us, 99);
  report->Metric("harness.invalid_steps", invalid, "count");
  ReportLoadQuarters(per_object_us, report);
  ProbeOverheads(served.get(), &senders[0], &senders[kBinarySenders], report);
  report->Metric("objects.retained_revisions",
                 static_cast<double>(vdb.db().store().versioned_garbage_count()),
                 "count");
  const std::map<std::string, Tracer::NameStats> spans = tracer.Summarize();
  report->Metric(
      "harness.trace_overhead.read_p50",
      Ratio(traced_steps[kMidStep].read_us.Percentile(50),
            mid.read_us.Percentile(50)),
      "ratio");
  report->Metric("harness.trace_overhead.ops_per_s",
                 Ratio(high.ok.Rate(),
                       traced_steps[kHighStep].ok.Rate()),
                 "ratio");
  ReportSpans(tracer, spans, args.work_dir + "/trace-served_ladder.jsonl",
              report);
}

}  // namespace perfbench
