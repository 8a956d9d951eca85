// MVCC + group-commit benchmark: what taking down the global write latch
// bought, with the claims enforced as gates.
//
//   * no-stall gate: reader p99 latency with a writer committing DML the
//     whole time must stay within 1.5x of the read-only p99. Both phases
//     run the reader against exactly one competing thread — a plain CPU
//     burner in the baseline, the DML writer in the measured phase — so
//     the ratio isolates blocking on the database from scheduler
//     contention on small machines;
//   * snapshot identity gate: every scan under concurrent DML must return
//     rows byte-identical to the quiesced serial baseline, with an
//     identical fresh-epoch pages_read aggregate (the writer mutates a
//     different class, so every pinned epoch sees the same tree — any
//     divergence is a chain-resolution bug, not a workload effect);
//   * group-commit gate: write QPS with 8 concurrent committers over a
//     batched-sync journal must reach >= 3x the same workload acked with
//     one fdatasync per record;
//   * commit-scaling gate: a commit costs what it touches, so the median
//     latency of a non-indexed Database::SetAttr at 2k objects and at the
//     largest size run (20k quick, 150k full) may differ by at most 25 %
//     (both draw their targets from their first 2k objects), and (full
//     mode) loading the paper-scale 150k objects one DML at a time must
//     finish in under 10 s. Both databases run without a
//     journal, so the figure is the commit path's own cost, not the
//     device's fdatasync.
//
// Reports to stdout and $UINDEX_BENCH_OUT_DIR/mvcc.json (default
// bench_results/mvcc.json).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "db/database.h"
#include "util/random.h"

namespace uindex {
namespace {

constexpr int64_t kQueryKeys = 1000;    // Reader class key space.
constexpr int64_t kWriterBase = 1 << 20;  // Writer keys: disjoint range.

struct LoadedDb {
  std::unique_ptr<Database> db;
  ClassId read_cls = kInvalidClassId;
  ClassId write_cls = kInvalidClassId;
  std::vector<Oid> write_oids;
};

Result<LoadedDb> BuildReaderDb(const std::string& journal_path,
                               uint32_t num_objects) {
  LoadedDb out;
  out.db = std::make_unique<Database>();
  Database& db = *out.db;
  UINDEX_RETURN_IF_ERROR(db.EnableJournal(journal_path));

  Result<ClassId> read_cls = db.CreateClass("Scanned");
  if (!read_cls.ok()) return read_cls.status();
  out.read_cls = read_cls.value();
  Result<ClassId> write_cls = db.CreateClass("Mutated");
  if (!write_cls.ok()) return write_cls.status();
  out.write_cls = write_cls.value();
  UINDEX_RETURN_IF_ERROR(
      db.CreateIndex(
            PathSpec::ClassHierarchy(out.read_cls, "Key", Value::Kind::kInt))
          .status());
  UINDEX_RETURN_IF_ERROR(
      db.CreateIndex(PathSpec::ClassHierarchy(out.write_cls, "Key",
                                              Value::Kind::kInt))
          .status());

  Random rng(0x3FCC);
  for (uint32_t i = 0; i < num_objects; ++i) {
    Result<Oid> oid = db.CreateObject(out.read_cls);
    if (!oid.ok()) return oid.status();
    UINDEX_RETURN_IF_ERROR(db.SetAttr(
        oid.value(), "Key",
        Value::Int(static_cast<int64_t>(rng.Uniform(kQueryKeys)))));
  }
  for (uint32_t i = 0; i < num_objects / 4; ++i) {
    Result<Oid> oid = db.CreateObject(out.write_cls);
    if (!oid.ok()) return oid.status();
    UINDEX_RETURN_IF_ERROR(
        db.SetAttr(oid.value(), "Key", Value::Int(kWriterBase + i)));
    out.write_oids.push_back(oid.value());
  }
  return out;
}

std::vector<Database::Selection> MakeQueries(ClassId cls, int n) {
  std::vector<Database::Selection> queries;
  queries.reserve(n);
  Random rng(0xBEEF);
  for (int q = 0; q < n; ++q) {
    Database::Selection sel;
    sel.cls = cls;
    sel.attr = "Key";
    const int64_t lo = static_cast<int64_t>(rng.Uniform(kQueryKeys - 10));
    sel.lo = Value::Int(lo);
    sel.hi = Value::Int(lo + 10);
    queries.push_back(sel);
  }
  return queries;
}

/// Runs the query list `rounds` times, collecting per-query latencies and
/// (on the first round) rows + the fresh-epoch pages_read aggregate.
Status ReaderPass(Database& db, const std::vector<Database::Selection>& qs,
                  int rounds, bench::LatencyRecorder* latencies,
                  std::vector<std::vector<Oid>>* rows, uint64_t* pages) {
  for (int round = 0; round < rounds; ++round) {
    const bool record = round == 0 && rows != nullptr;
    if (record) {
      db.buffers().BeginQuery();  // Fresh epoch: count each page once.
      rows->clear();
    }
    const IoStats base = db.buffers().stats();
    for (const Database::Selection& sel : qs) {
      const auto start = std::chrono::steady_clock::now();
      Result<Database::SelectResult> r = db.Select(sel);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (!r.ok()) return r.status();
      if (!r.value().used_index) {
        return Status::Corruption("query fell back to an extent scan");
      }
      latencies->Record(us);
      if (record) rows->push_back(std::move(r.value().oids));
    }
    if (record && pages != nullptr) {
      *pages = (db.buffers().stats() - base)
                   .pages_read.load(std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

/// 8-writer commit storm against a fresh journaled database; returns QPS.
Result<double> WriteStorm(const std::string& journal_path, bool group_commit,
                          int writers, int commits_per_writer) {
  DatabaseOptions options;
  options.group_commit = group_commit;
  Database db(options);
  UINDEX_RETURN_IF_ERROR(db.EnableJournal(journal_path));
  Result<ClassId> cls = db.CreateClass("Item");
  if (!cls.ok()) return cls.status();
  std::vector<Oid> oids;
  for (int i = 0; i < writers; ++i) {
    Result<Oid> oid = db.CreateObject(cls.value());
    if (!oid.ok()) return oid.status();
    oids.push_back(oid.value());
  }

  std::atomic<int> failures{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < commits_per_writer; ++i) {
        if (!db.SetAttr(oids[t], "Key", Value::Int(i)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (failures.load() != 0) {
    return Status::Corruption("write storm: a commit failed");
  }
  return writers * commits_per_writer / secs;
}

/// A journal-less database of `n` objects with an indexed int Key, loaded
/// one DML at a time (create, then set Key), as an application would.
struct ScaledDb {
  std::unique_ptr<Database> db;
  std::vector<Oid> oids;
  double load_s = 0;
};

Result<ScaledDb> LoadScaledDb(uint32_t n) {
  ScaledDb out;
  out.db = std::make_unique<Database>();
  Database& db = *out.db;
  Result<ClassId> cls = db.CreateClass("Item");
  if (!cls.ok()) return cls.status();
  UINDEX_RETURN_IF_ERROR(
      db.CreateIndex(
            PathSpec::ClassHierarchy(cls.value(), "Key", Value::Kind::kInt))
          .status());
  out.oids.reserve(n);
  Random rng(0x10AD);
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < n; ++i) {
    Result<Oid> oid = db.CreateObject(cls.value());
    if (!oid.ok()) return oid.status();
    UINDEX_RETURN_IF_ERROR(db.SetAttr(
        oid.value(), "Key",
        Value::Int(static_cast<int64_t>(rng.Uniform(kQueryKeys)))));
    out.oids.push_back(oid.value());
  }
  out.load_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  return out;
}

/// Times `count` commits of a non-indexed attribute on random objects
/// among the first `targets` loaded. Drawing from the same number of
/// objects at every database size keeps the touched working set equal,
/// so the comparison sees only what a commit costs as the store grows.
Status TimeNoIndexCommits(ScaledDb& scaled, uint32_t targets, Random* rng,
                          int count, bench::LatencyRecorder* latencies) {
  for (int i = 0; i < count; ++i) {
    const Oid oid = scaled.oids[rng->Uniform(targets)];
    const auto start = std::chrono::steady_clock::now();
    UINDEX_RETURN_IF_ERROR(scaled.db->SetAttr(oid, "Note", Value::Int(i)));
    latencies->Record(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return Status::OK();
}

int Run() {
  const uint32_t num_objects = bench::QuickMode() ? 6000u : 30000u;
  const int num_queries = bench::QuickMode() ? 200 : 500;
  const int reader_rounds = bench::QuickMode() ? 4 : 10;
  const int commits_per_writer = bench::QuickMode() ? 40 : 150;
  constexpr int kWriters = 8;

  std::error_code ec;
  const std::filesystem::path work =
      std::filesystem::temp_directory_path() / "uindex_bench_mvcc";
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);

  Result<LoadedDb> loaded =
      BuildReaderDb((work / "reader.journal").string(), num_objects);
  if (!loaded.ok()) {
    std::fprintf(stderr, "setup: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Database& db = *loaded.value().db;
  const std::vector<Database::Selection> queries =
      MakeQueries(loaded.value().read_cls, num_queries);

  // --- Phase 1: read-only baseline (reader + CPU burner). ----------------
  std::vector<std::vector<Oid>> baseline_rows;
  uint64_t baseline_pages = 0;
  bench::LatencyRecorder baseline_lat;
  {
    std::atomic<bool> stop{false};
    // The competitor mirrors the concurrent phase's writer duty cycle —
    // a short CPU burst then a write+fdatasync on a scratch file — so the
    // only thing phase 2 changes is that the competitor's commits go
    // through the database. A pure spin loop here would understate the
    // baseline p99: a thread that sleeps in fdatasync wakes with
    // scheduler credit and preempts the reader mid-query, and that cost
    // must land in both phases for the ratio to isolate DB blocking.
    const std::string scratch = (work / "burner.dat").string();
    std::thread burner([&stop, &scratch] {
      const int fd = ::open(scratch.c_str(), O_CREAT | O_WRONLY, 0644);
      char buf[64] = {0};
      uint64_t x = 1;
      std::atomic<uint64_t> sink{0};
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = 0; i < 4000; ++i) x = x * 31 + 7;
        sink.store(x, std::memory_order_relaxed);
        if (fd >= 0) {
          (void)::pwrite(fd, buf, sizeof buf, 0);
          (void)::fdatasync(fd);
        }
      }
      if (fd >= 0) ::close(fd);
    });
    Status st = ReaderPass(db, queries, reader_rounds, &baseline_lat,
                           &baseline_rows, &baseline_pages);
    stop.store(true, std::memory_order_release);
    burner.join();
    if (!st.ok()) {
      std::fprintf(stderr, "read-only phase: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const double p99_read_only = baseline_lat.PercentileUs(99);

  // --- Phase 2: same scans with a writer committing the whole time. ------
  std::vector<std::vector<Oid>> concurrent_rows;
  uint64_t concurrent_pages = 0;
  bench::LatencyRecorder concurrent_lat;
  uint64_t writer_commits = 0;
  {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> commits{0};
    std::atomic<bool> writer_failed{false};
    const std::vector<Oid>& targets = loaded.value().write_oids;
    std::thread writer([&] {
      Random wrng(0x5EED);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Oid oid = targets[wrng.Uniform(targets.size())];
        if (!db.SetAttr(oid, "Key",
                        Value::Int(kWriterBase +
                                   static_cast<int64_t>(wrng.Uniform(1 << 16))))
                 .ok()) {
          writer_failed.store(true, std::memory_order_release);
          return;
        }
        commits.fetch_add(1, std::memory_order_relaxed);
        ++n;
      }
    });
    // Rows are recorded per query (snapshot identity under live commits);
    // the pages_read aggregate is NOT measured here — it is a database-
    // wide counter, so the writer's own page traffic would leak into the
    // delta. It is measured right below, quiesced, with the writer's
    // version chains still in place.
    Status st = ReaderPass(db, queries, reader_rounds, &concurrent_lat,
                           &concurrent_rows, /*pages=*/nullptr);
    stop.store(true, std::memory_order_release);
    writer.join();
    writer_commits = commits.load();
    if (!st.ok() || writer_failed.load()) {
      std::fprintf(stderr, "concurrent phase: %s\n",
                   st.ok() ? "writer DML failed" : st.ToString().c_str());
      return 1;
    }
  }
  {
    // Quiesced re-scan over the CoW version chains the writer left
    // behind: resolution through the chains must charge the same logical
    // pages as the chain-free baseline.
    std::vector<std::vector<Oid>> post_rows;
    bench::LatencyRecorder post_lat;
    Status st = ReaderPass(db, queries, /*rounds=*/1, &post_lat, &post_rows,
                           &concurrent_pages);
    if (!st.ok()) {
      std::fprintf(stderr, "post-quiesce scan: %s\n", st.ToString().c_str());
      return 1;
    }
    if (post_rows != baseline_rows) {
      std::fprintf(stderr, "FAIL: post-quiesce rows diverged\n");
      concurrent_pages = ~0ull;  // Force the identity gate to fail.
    }
  }
  const double p99_concurrent = concurrent_lat.PercentileUs(99);
  const double p99_ratio =
      p99_read_only > 0 ? p99_concurrent / p99_read_only : 0;

  // --- Identity gate: pinned-epoch scans match the serial baseline. ------
  bool identical = baseline_rows == concurrent_rows;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: scans under concurrent DML diverged from the "
                 "quiesced baseline\n");
  }
  if (baseline_pages != concurrent_pages) {
    identical = false;
    std::fprintf(stderr,
                 "FAIL: pages_read moved under concurrent DML: quiesced "
                 "%llu, concurrent %llu\n",
                 static_cast<unsigned long long>(baseline_pages),
                 static_cast<unsigned long long>(concurrent_pages));
  }

  const IoStats& stats = db.buffers().stats();
  const uint64_t batches = stats.commit_batches.load();
  const uint64_t batched_records = stats.commit_records.load();
  const double batch_avg =
      batches > 0 ? static_cast<double>(batched_records) / batches : 0;

  // --- Phase 3: 8-writer commit storm, sync-each vs group commit. --------
  Result<double> qps_sync_each =
      WriteStorm((work / "storm_sync.journal").string(),
                 /*group_commit=*/false, kWriters, commits_per_writer);
  if (!qps_sync_each.ok()) {
    std::fprintf(stderr, "sync-each storm: %s\n",
                 qps_sync_each.status().ToString().c_str());
    return 1;
  }
  Result<double> qps_group =
      WriteStorm((work / "storm_group.journal").string(),
                 /*group_commit=*/true, kWriters, commits_per_writer);
  if (!qps_group.ok()) {
    std::fprintf(stderr, "group-commit storm: %s\n",
                 qps_group.status().ToString().c_str());
    return 1;
  }
  const double qps_ratio = qps_group.value() / qps_sync_each.value();

  // --- Phase 4: commit latency vs database size. -------------------------
  constexpr uint32_t kSmallObjects = 2000;
  const uint32_t large_objects = bench::QuickMode() ? 20000u : 150000u;
  Result<ScaledDb> small_db = LoadScaledDb(kSmallObjects);
  Result<ScaledDb> large_db = LoadScaledDb(large_objects);
  if (!small_db.ok() || !large_db.ok()) {
    std::fprintf(stderr, "scaling load: %s\n",
                 (small_db.ok() ? large_db.status() : small_db.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  // Alternating batches, so a slow stretch of the host lands on both.
  bench::LatencyRecorder small_lat;
  bench::LatencyRecorder large_lat;
  {
    Random crng(0xC0DE);
    for (int round = 0; round < 20; ++round) {
      Status st = TimeNoIndexCommits(small_db.value(), kSmallObjects, &crng,
                                     250, &small_lat);
      if (st.ok()) {
        st = TimeNoIndexCommits(large_db.value(), kSmallObjects, &crng, 250,
                                &large_lat);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "scaling commits: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  const double p50_small = small_lat.PercentileUs(50);
  const double p50_large = large_lat.PercentileUs(50);
  const double scaling_ratio =
      std::max(p50_small, p50_large) /
      std::max(1e-9, std::min(p50_small, p50_large));
  const double load_s = large_db.value().load_s;
  small_db.value().db.reset();
  large_db.value().db.reset();

  std::printf("bench_mvcc: %u objects, %d queries x %d rounds, %llu "
              "concurrent commits%s\n",
              num_objects, num_queries, reader_rounds,
              static_cast<unsigned long long>(writer_commits),
              bench::QuickMode() ? " (quick mode)" : "");
  std::printf("  %-40s %12.1f us\n", "reader p99 (read-only + burner)",
              p99_read_only);
  std::printf("  %-40s %12.1f us  (%.2fx, gate <= 1.5x)\n",
              "reader p99 (writer committing)", p99_concurrent, p99_ratio);
  std::printf("  %-40s %12s\n", "snapshot identity (rows, pages_read)",
              identical ? "identical" : "DIFFER");
  std::printf("  %-40s %12.2f\n", "commit batch size avg (reader phase)",
              batch_avg);
  std::printf("  %-40s %12.0f/s\n", "write QPS, 8 writers, sync each",
              qps_sync_each.value());
  std::printf("  %-40s %12.0f/s  (%.2fx, gate >= 3x)\n",
              "write QPS, 8 writers, group commit", qps_group.value(),
              qps_ratio);
  std::printf("  %-40s %12.2f us\n", "no-index SetAttr p50, 2k objects",
              p50_small);
  std::printf("  %-40s %12.2f us  (%.2fx apart, gate <= 1.25x)\n",
              large_objects == 150000u ? "no-index SetAttr p50, 150k objects"
                                       : "no-index SetAttr p50, 20k objects",
              p50_large, scaling_ratio);
  std::printf("  %-40s %12.2f s%s\n",
              large_objects == 150000u ? "load 150k objects, one DML each"
                                       : "load 20k objects, one DML each",
              load_s, bench::QuickMode() ? "" : "  (gate < 10 s)");

  std::string json_text;
  {
    bench::AppendF(
        &json_text,
        "{\n  \"bench\": \"mvcc\",\n  \"quick_mode\": %s,\n"
        "  \"reader_p99_us\": {\"read_only\": %.1f, \"concurrent\": %.1f, "
        "\"ratio\": %.3f},\n  \"reader_latency\": {\"read_only\": ",
        bench::QuickMode() ? "true" : "false", p99_read_only, p99_concurrent,
        p99_ratio);
    baseline_lat.AppendJson(&json_text);
    bench::AppendF(&json_text, ", \"concurrent\": ");
    concurrent_lat.AppendJson(&json_text);
    bench::AppendF(
        &json_text,
        "},\n"
        "  \"snapshot_identity\": %s,\n"
        "  \"pages_read\": {\"quiesced\": %llu, \"concurrent\": %llu},\n"
        "  \"concurrent_writer_commits\": %llu,\n"
        "  \"commit_batch_size_avg\": %.2f,\n"
        "  \"write_qps\": {\"writers\": %d, \"sync_each\": %.0f, "
        "\"group_commit\": %.0f, \"ratio\": %.3f},\n",
        identical ? "true" : "false",
        static_cast<unsigned long long>(baseline_pages),
        static_cast<unsigned long long>(concurrent_pages),
        static_cast<unsigned long long>(writer_commits), batch_avg, kWriters,
        qps_sync_each.value(), qps_group.value(), qps_ratio);
    bench::AppendF(&json_text,
                   "  \"commit_scaling\": {\"small_objects\": %u, "
                   "\"large_objects\": %u, \"setattr_noindex\": "
                   "{\"small\": ",
                   kSmallObjects, large_objects);
    small_lat.AppendJson(&json_text);
    bench::AppendF(&json_text, ", \"large\": ");
    large_lat.AppendJson(&json_text);
    bench::AppendF(&json_text,
                   "}, \"p50_ratio\": %.3f, \"load_s\": %.3f}\n}\n",
                   scaling_ratio, load_s);
    bench::WriteArtifact("mvcc", json_text);
  }

  std::filesystem::remove_all(work, ec);

  int rc = 0;
  if (!identical) rc = 1;
  // UINDEX_BENCH_NO_TIMING_GATES keeps the correctness gate (snapshot
  // identity) while waiving the latency/throughput ones — for sanitizer
  // legs, where instrumentation distorts every timing ratio.
  const char* no_timing = std::getenv("UINDEX_BENCH_NO_TIMING_GATES");
  const bool timing_gates = no_timing == nullptr || no_timing[0] == '\0' ||
                            std::string_view(no_timing) == "0";
  if (p99_ratio > 1.5) {
    std::fprintf(stderr, "%s: reader p99 ratio %.2f exceeds 1.5x\n",
                 timing_gates ? "FAIL" : "note (gate waived)", p99_ratio);
    if (timing_gates) rc = 1;
  }
  if (qps_ratio < 3.0) {
    std::fprintf(stderr, "%s: group-commit QPS ratio %.2f below 3x\n",
                 timing_gates ? "FAIL" : "note (gate waived)", qps_ratio);
    if (timing_gates) rc = 1;
  }
  if (scaling_ratio > 1.25) {
    std::fprintf(stderr,
                 "%s: no-index SetAttr p50 %.2f us at %u objects vs %.2f us "
                 "at %u (%.2fx apart, gate 1.25x)\n",
                 timing_gates ? "FAIL" : "note (gate waived)", p50_large,
                 large_objects, p50_small, kSmallObjects, scaling_ratio);
    if (timing_gates) rc = 1;
  }
  if (!bench::QuickMode() && load_s >= 10.0) {
    std::fprintf(stderr, "%s: loading %u objects took %.2f s (gate < 10 s)\n",
                 timing_gates ? "FAIL" : "note (gate waived)", large_objects,
                 load_s);
    if (timing_gates) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace uindex

int main() { return uindex::Run(); }
