// vehicle_mixed: the embedded object database under a read/write mix.
// Two clients, each with its own Session, run OQL reads in a closed loop
// against the Table-1 vehicle database (memory backend, all index pages
// resident, group-commit journal on the local disk) and issue DML on a
// fixed schedule, kWritesPerSecond over all clients. Writes run beside reads
// on the same indexes, so this workload covers the commit path, index
// maintenance (paper §3.5), OQL parse/plan and latching, all of which
// paper_sets bypasses.
//
// Writes are paced rather than one in ten ops of the closed loop: a
// president switch holds the writer lock for tens of milliseconds, so a
// closed loop that writes one op in ten saturates the writer lock, and
// its write latency and throughput then measure a queue whose length
// swings from run to run. At the paced rate the writer lock is mostly
// idle, write latency is the commit path's own cost beside concurrent
// readers, and ops_per_s is the read throughput beside those writes.
//
// Each client writes only its own slice of the vehicles and companies, so
// the final state does not depend on how the clients interleave; every
// distinct read is checked against the benchmark's model once the clients
// have stopped.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/oql.h"
#include "db/session.h"
#include "harness.h"
#include "vehicle_data.h"

namespace perfbench {
namespace {

// Two of the host's four processors: the rest stay free for the commit
// leader, the journal's syncs and other tenants of a shared host, whose
// load would otherwise decide how the clients and the writer interleave.
constexpr int kClients = 2;
constexpr double kWritesPerSecond = 32;  // Over all clients.

struct ClientState {
  explicit ClientState(uint64_t seed)
      : read_rng(seed), write_rng(seed ^ 0x5DEECE66Dull) {}
  // Separate streams, so the reads and the writes a seed generates do not
  // depend on how they interleave in time.
  Rng read_rng, write_rng;
  uint64_t op_no = 0, read_no = 0, write_no = 0;
};

struct ClientResult {
  Windowed read_us, write_us, ops_done;
  LatencyRecorder write_by_kind[kWriteKinds];
  uint64_t ops = 0, reads = 0, writes = 0, errors = 0;
};

const char* const kWriteSpan[kWriteKinds] = {
    "db.commit_indexed", "db.commit_noindex", "db.rereference"};

// Client c writes the vehicles and companies whose index is c modulo
// kClients; that is whole company slices, whose presidents come from the
// same slices, so no two clients ever write the same object.
static_assert(kSlices % kClients == 0, "each client owns whole slices");

VehicleWrite MakeWrite(const VehicleDb& vdb, int kind, int client,
                       Rng& rng) {
  VehicleWrite w;
  w.kind = kind;
  if (kind == 2) {
    // Hand one of this client's companies to an employee of the company's
    // slice who presides over nothing, so each president keeps one company.
    w.target = client + kClients * static_cast<uint32_t>(
                                       rng.Uniform(kCompanies / kClients));
    w.value = vdb.FreeEmployee(w.target % kSlices, rng);
  } else {
    w.target = client + kClients * static_cast<uint32_t>(
                                       rng.Uniform(kVehicles / kClients));
    w.value = kind == 0 ? static_cast<int64_t>(rng.Uniform(kVehicleColorCount))
                        : static_cast<int64_t>(rng.Uniform(200000));
  }
  return w;
}

void ClientLoop(VehicleDb* vdb, int client, ClientState* st,
                Clock::time_point start, Clock::time_point stop,
                Tracer* tracer, ClientResult* r) {
  std::unique_ptr<Tracer::Buffer> buf;
  if (tracer != nullptr) buf = std::make_unique<Tracer::Buffer>(tracer);
  uindex::Session session(&vdb->db());
  // The clients take turns: their writes fall due evenly over a period.
  const Clock::duration period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kClients / kWritesPerSecond));
  Clock::time_point write_due = start + period * (client + 1) / kClients;
  while (Clock::now() < stop) {
    const uint64_t i = st->op_no++;
    const uint64_t request = (static_cast<uint64_t>(client) << 48) | i;
    if (Clock::now() >= write_due) {
      write_due += period;
      const int kind = static_cast<int>(st->write_no++ % kWriteKinds);
      const VehicleWrite w = MakeWrite(*vdb, kind, client, st->write_rng);
      Tracer::Scope root(buf.get(), "op.write", request);
      const Clock::time_point t0 = Clock::now();
      uindex::Status s;
      {
        Tracer::Scope span(buf.get(), kWriteSpan[kind], request);
        s = vdb->ApplyWrite(w, /*rekey_as_age=*/false);
      }
      const Clock::time_point t1 = Clock::now();
      const double us = UsBetween(t0, t1);
      r->write_us.Add(t1, us);
      r->write_by_kind[kind].Record(us);
      ++r->writes;
      if (!s.ok()) {
        std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
        ++r->errors;
        return;
      }
    } else {
      const int kind = static_cast<int>(st->read_no++ % kReadKinds);
      const std::string oql = vdb->Oql(vdb->MakeRead(kind, st->read_rng));
      Tracer::Scope root(buf.get(), "op.read", request);
      const Clock::time_point t0 = Clock::now();
      bool ok;
      {
        Tracer::Scope span(buf.get(), "db.execute_oql", request);
        ok = session.ExecuteOql(oql).ok();
      }
      const Clock::time_point t1 = Clock::now();
      r->read_us.Add(t1, UsBetween(t0, t1));
      ++r->reads;
      if (!ok) {
        std::fprintf(stderr, "read failed: %s\n", oql.c_str());
        ++r->errors;
        return;
      }
    }
    r->ops_done.Count(Clock::now());
    ++r->ops;
  }
}

struct Phase {
  ClientResult all;
  IoDelta io;
};

Phase RunPhase(VehicleDb* vdb, std::vector<ClientState>* states,
               double seconds, Tracer* tracer) {
  std::vector<ClientResult> results(kClients);
  const uindex::IoStats before = vdb->db().buffers().stats();
  const Clock::time_point start = Clock::now();
  for (ClientResult& r : results) {
    r.read_us = r.write_us = r.ops_done = Windowed(start, seconds);
  }
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, vdb, c, &(*states)[c], start, stop,
                           tracer, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  Phase p;
  p.all.read_us = p.all.write_us = p.all.ops_done =
      Windowed(start, seconds);
  p.io = IoDelta::Between(before, vdb->db().buffers().stats());
  for (const ClientResult& r : results) {
    p.all.read_us.Merge(r.read_us);
    p.all.write_us.Merge(r.write_us);
    p.all.ops_done.Merge(r.ops_done);
    for (int k = 0; k < kWriteKinds; ++k) {
      p.all.write_by_kind[k].Merge(r.write_by_kind[k]);
    }
    p.all.ops += r.ops;
    p.all.reads += r.reads;
    p.all.writes += r.writes;
    p.all.errors += r.errors;
  }
  return p;
}

/// Unloaded per-call timings of each layer, over every distinct read.
void ProbeLayers(VehicleDb* vdb, Report* report) {
  constexpr int kReps = 10;
  LatencyRecorder parse_us, plan_us, parscan_us;
  uindex::Database& db = vdb->db();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const VehicleRead& r : vdb->DistinctReads()) {
      const std::string oql = vdb->Oql(r);
      Clock::time_point t0 = Clock::now();
      const bool parsed = uindex::ParseOql(oql).ok();
      parse_us.Record(UsSince(t0));
      t0 = Clock::now();
      const bool planned = db.PlanOqlRouting(oql).ok();
      plan_us.Record(UsSince(t0));
      if (!parsed || !planned) report->Fail("probe: cannot plan " + oql);
      size_t pos = 0, key_pos = 0;
      uindex::Query q;
      if (vdb->IndexQuery(r, &pos, &q, &key_pos)) {
        t0 = Clock::now();
        const bool ok = db.Execute(pos, q).ok();
        parscan_us.Record(UsSince(t0));
        if (!ok) report->Fail("probe: index query failed for " + oql);
      }
    }
  }
  report->Percentile("db.oql_parse_us", parse_us, 50);
  report->Percentile("db.plan_us", plan_us, 50);
  report->Percentile("core.parscan_us.p50", parscan_us, 50);
  report->Percentile("core.parscan_us.p99", parscan_us, 99);
}

}  // namespace

void RunVehicleMixed(const Args& args, Report* report) {
  std::vector<double> setup_s, per_object_us;
  std::unique_ptr<VehicleDb> vdb =
      BuildVehicleDbRepeated(args, &setup_s, &per_object_us, report);
  if (vdb == nullptr) return;
  const double index_pages = static_cast<double>(vdb->db().live_pages());
  int64_t serial_reads = 0;
  const double pages_per_read =
      SerialPagesPerRead(vdb.get(), &serial_reads, report);
  if (!report->correct()) return;

  std::vector<ClientState> states;
  for (int c = 0; c < kClients; ++c) {
    states.emplace_back(args.seed * 1000003ull + static_cast<uint64_t>(c));
  }
  Tracer tracer;
  Phase main_phase, traced;
  if (!args.trace) {
    main_phase = RunPhase(vdb.get(), &states, args.seconds, nullptr);
  } else {
    main_phase = RunPhase(vdb.get(), &states, args.seconds / 2, nullptr);
    traced = RunPhase(vdb.get(), &states, args.seconds / 2, &tracer);
  }
  const uint64_t errors = main_phase.all.errors + traced.all.errors;
  report->Attempt(main_phase.all.ops + traced.all.ops + errors);
  if (errors != 0) {
    report->Failed(errors);
    report->Fail("closed loop: a Session read or a DML failed");
    return;
  }
  const size_t checked = vdb->Verify(report);
  if (!report->correct()) return;
  report->Note("checked " + std::to_string(checked) +
               " distinct reads against the model at quiesce");

  const ClientResult& m = main_phase.all;
  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report->Metric("index_pages", index_pages, "pages");
  report->Metric("pages_per_read", pages_per_read, "pages", serial_reads);
  report->Percentile("read_p50_us", m.read_us, 50);
  report->Percentile("read_p90_us", m.read_us, 90);
  report->Percentile("read_p99_us", m.read_us, 99);
  report->Percentile("write_p50_us", m.write_us, 50);
  report->Percentile("write_p90_us", m.write_us, 90);
  report->Metric("ops_per_s", m.ops_done.Rate(), "ops/s",
                 static_cast<int64_t>(m.ops));
  report->Metric("failed_ratio", 0, "ratio");
  report->Note("ops/s per window: " + ValuesText(m.ops_done.Rates()));
  for (int k = 0; k < kWriteKinds; ++k) {
    report->Percentile(std::string("detail.write_p50_us.") + kWriteSpan[k],
                       m.write_by_kind[k], 50);
  }
  if (!args.trace) return;

  const ClientResult& t = traced.all;
  const IoDelta& io = traced.io;
  const double reads = static_cast<double>(t.reads);
  const double writes = static_cast<double>(t.writes);
  report->Metric("storage.pool_miss_ratio",
                 Ratio(io.pool_misses, io.pool_hits + io.pool_misses),
                 "ratio");
  report->Metric("storage.evictions_per_read", Ratio(io.evictions, reads),
                 "count");
  report->Metric("storage.prefetch_useful_ratio",
                 Ratio(io.prefetch_hits, io.prefetch_issued), "ratio");
  report->Metric("storage.prefetch_wasted_per_read",
                 Ratio(io.prefetch_wasted, reads), "count");
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
  ReportLoadQuarters(per_object_us, report);
  const std::map<std::string, Tracer::NameStats> spans = tracer.Summarize();
  report->Percentile("db.execute_oql_us",
                     SpanDurations(spans, "db.execute_oql"), 50);
  for (int k = 0; k < kWriteKinds; ++k) {
    report->Percentile(std::string(kWriteSpan[k]) + "_us",
                       SpanDurations(spans, kWriteSpan[k]), 50);
  }
  ProbeLayers(vdb.get(), report);
  report->Metric("objects.retained_revisions",
                 static_cast<double>(
                     vdb->db().store().versioned_garbage_count()),
                 "count");
  report->Metric("harness.trace_overhead.read_p50",
                 Ratio(t.read_us.Percentile(50),
                       m.read_us.Percentile(50)),
                 "ratio");
  report->Metric("harness.trace_overhead.ops_per_s",
                 Ratio(m.ops_done.Rate(), t.ops_done.Rate()),
                 "ratio");
  ReportSpans(tracer, spans, args.work_dir + "/trace-vehicle_mixed.jsonl",
              report);
}

}  // namespace perfbench
