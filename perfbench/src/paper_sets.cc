// paper_sets: the paper's §5.1 class-hierarchy experiment at paper scale,
// on the index core alone (UIndexSetAdapter + BufferManager + FilePager),
// with no Database, object store, MVCC, journal or network in the path.
//
// 150,000 postings over 40 sets with 1,000 distinct keys and 1 KiB pages
// are inserted one at a time into a file-backed index behind a 256-frame
// buffer pool: about 2,070 index pages, eight times the pool. One client
// then runs a closed loop of 9 reads to 1 write. Reads cycle through the
// twelve figure 5-8 query types (exact match, 0.5 % and 2 % ranges, over
// 1 set, 10 near sets, 10 spread sets and all 40; see kReadCycle), so
// every seed runs the same mix and only the keys and sets change. Writes insert a fresh
// posting or remove the oldest one still inserted, so the index stays the
// same size.
//
// The loop runs with no prefetcher attached, so a read is one thread's
// work from call to answer. With the Database's default prefetch pipeline
// (four background readers) a read waits on pages other threads fetch,
// and on a shared host its latency then follows how soon those threads
// get a processor. A traced run measures the pipeline separately, in a
// serial pass with it attached (ProbePrefetch).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "harness.h"
#include "storage/buffer_manager.h"
#include "storage/env/env.h"
#include "storage/file_pager.h"
#include "storage/prefetch.h"
#include "workload/database_generator.h"
#include "workload/experiment.h"

namespace perfbench {
namespace {

using uindex::Oid;
using uindex::Value;

constexpr uint32_t kPostings = 150000;
constexpr uint32_t kSets = 40;
constexpr int64_t kKeys = 1000;
constexpr uint32_t kPageSize = 1024;
constexpr size_t kPoolFrames = 256;
constexpr size_t kPrefetchWorkers = 4;  // Database's default.
constexpr int kPrefetchProbeCycles = 40;  // Read cycles in ProbePrefetch.
constexpr int kSetups = 3;
constexpr int kQueryTypes = 12;
// The loop's read cycle: every type once, and two types a second time, so
// that the mix's percentiles fall inside one type's latencies rather than
// in the gap between two, where a small shift in speed moves them from one
// type to the next: type 6 (0.5 % over 10 spread sets) holds the median,
// and type 10 (2 % over 10 spread sets) holds p90 below the slowest type.
constexpr int kReadCycle[] = {0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10, 10, 11};
constexpr int kReadCycleLength = 14;
constexpr int kSerialPerType = 200;
constexpr size_t kWriteWindow = 100;  // Inserted postings kept live.
constexpr Oid kFirstWriteOid = 1000000;

struct Posting {
  int64_t key;
  uint32_t set;
  Oid oid;
};

struct SetQuery {
  int type;
  int64_t lo, hi;
  std::vector<uint32_t> sets;
};

const char* const kTypeNames[kQueryTypes] = {
    "exact/1",   "exact/10near",   "exact/10spread",   "exact/40",
    "r0.5%/1",   "r0.5%/10near",   "r0.5%/10spread",   "r0.5%/40",
    "r2%/1",     "r2%/10near",     "r2%/10spread",     "r2%/40"};

SetQuery MakeQuery(int type, Rng& rng) {
  SetQuery q;
  q.type = type;
  const int64_t width = type / 4 == 0 ? 1 : type / 4 == 1 ? 5 : 20;
  q.lo = static_cast<int64_t>(rng.Uniform(kKeys - width + 1));
  q.hi = q.lo + width - 1;
  switch (type % 4) {
    case 0:
      q.sets = {static_cast<uint32_t>(rng.Uniform(kSets))};
      break;
    case 1: {  // Adjacent class codes: the paper's "near" sets.
      const uint32_t first = static_cast<uint32_t>(rng.Uniform(kSets - 9));
      for (uint32_t i = 0; i < 10; ++i) q.sets.push_back(first + i);
      break;
    }
    case 2: {  // One set in every four: spread over the whole code range.
      const uint32_t offset = static_cast<uint32_t>(rng.Uniform(4));
      for (uint32_t i = 0; i < 10; ++i) q.sets.push_back(offset + 4 * i);
      break;
    }
    default:
      for (uint32_t i = 0; i < kSets; ++i) q.sets.push_back(i);
  }
  return q;
}

/// The reference the index's answers are checked against: per set, the
/// (key, oid) pairs sorted, updated by every write the loop issues.
class Model {
 public:
  explicit Model(const std::vector<Posting>& postings) : by_set_(kSets) {
    for (const Posting& p : postings) {
      by_set_[p.set].push_back({p.key, p.oid});
    }
    for (auto& v : by_set_) std::sort(v.begin(), v.end());
  }
  void Insert(const Posting& p) {
    auto& v = by_set_[p.set];
    v.insert(std::lower_bound(v.begin(), v.end(), Entry{p.key, p.oid}),
             Entry{p.key, p.oid});
  }
  void Remove(const Posting& p) {
    auto& v = by_set_[p.set];
    v.erase(std::lower_bound(v.begin(), v.end(), Entry{p.key, p.oid}));
  }
  std::vector<Oid> Answer(const SetQuery& q) const {
    std::vector<Oid> out;
    for (uint32_t s : q.sets) {
      const auto& v = by_set_[s];
      for (auto it = std::lower_bound(v.begin(), v.end(), Entry{q.lo, 0});
           it != v.end() && it->first <= q.hi; ++it) {
        out.push_back(it->second);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  using Entry = std::pair<int64_t, Oid>;
  std::vector<std::vector<Entry>> by_set_;
};

uint64_t DigestOf(const std::vector<Oid>& sorted) {
  Digest d;
  d.Add(sorted.size());
  for (Oid o : sorted) d.Add(o);
  return d.value();
}

/// One loaded index with the storage stack under it. Teardown order: the
/// prefetcher (when ProbePrefetch attached one) drains first, then its
/// pool, the index, buffers and pager.
struct PaperIndex {
  std::string path;
  std::unique_ptr<uindex::SetHierarchy> hierarchy;
  std::unique_ptr<uindex::FilePager> pager;
  std::unique_ptr<uindex::BufferManager> buffers;
  std::unique_ptr<uindex::UIndexSetAdapter> index;
  std::unique_ptr<uindex::exec::ThreadPool> io_pool;
  std::unique_ptr<uindex::PrefetchScheduler> prefetcher;

  PaperIndex() = default;
  PaperIndex(const PaperIndex&) = delete;
  PaperIndex& operator=(const PaperIndex&) = delete;
  ~PaperIndex() {
    prefetcher.reset();
    io_pool.reset();
    index.reset();
    buffers.reset();
    pager.reset();
    if (!path.empty()) std::filesystem::remove(path);
  }

  uindex::ClassId SetId(uint32_t set) const { return hierarchy->sets[set]; }
};

std::vector<Posting> GeneratePostings(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<Posting> out(kPostings);
  for (uint32_t i = 0; i < kPostings; ++i) {
    out[i].key = static_cast<int64_t>(rng.Uniform(kKeys));
    out[i].set = static_cast<uint32_t>(rng.Uniform(kSets));
    out[i].oid = i + 1;
  }
  return out;
}

/// Generates and loads; returns false on any error.
bool Setup(const Args& args, int attempt, std::unique_ptr<PaperIndex>* out,
           std::vector<Posting>* postings, LatencyRecorder* insert_us,
           Report* report) {
  auto idx = std::make_unique<PaperIndex>();
  *postings = GeneratePostings(args.seed);
  uindex::Result<uindex::SetHierarchy> h = uindex::BuildSetHierarchy(kSets);
  if (!h.ok()) {
    report->Fail("hierarchy: " + h.status().ToString());
    return false;
  }
  idx->hierarchy =
      std::make_unique<uindex::SetHierarchy>(std::move(h).value());
  idx->path = args.work_dir + "/paper_sets-" + std::to_string(::getpid()) +
              "-" + std::to_string(attempt) + ".dat";
  auto pager = uindex::FilePager::Create(uindex::Env::Default(), idx->path,
                                         kPageSize);
  if (!pager.ok()) {
    report->Fail("file pager: " + pager.status().ToString());
    return false;
  }
  idx->pager = std::move(pager).value();
  idx->buffers = std::make_unique<uindex::BufferManager>(
      idx->pager.get(), kPoolFrames, uindex::BufferPool::Eviction::kLru);
  idx->index = std::make_unique<uindex::UIndexSetAdapter>(
      idx->buffers.get(), idx->hierarchy.get());
  for (const Posting& p : *postings) {
    const Clock::time_point t0 = Clock::now();
    uindex::Status s =
        idx->index->Insert(Value::Int(p.key), idx->SetId(p.set), p.oid);
    if (insert_us != nullptr) insert_us->Record(UsSince(t0));
    if (!s.ok()) {
      report->Fail("load insert: " + s.ToString());
      return false;
    }
  }
  *out = std::move(idx);
  return true;
}

std::vector<uindex::ClassId> ClassesOf(const PaperIndex& idx,
                                       const SetQuery& q) {
  std::vector<uindex::ClassId> out;
  for (uint32_t s : q.sets) out.push_back(idx.SetId(s));
  return out;
}

/// One op of the closed loop.
struct PaperOp {
  bool write = false;
  bool insert = false;  // Write: insert (else remove).
  Posting posting{};    // Write target.
  SetQuery query;       // Read.
};

/// The loop's ops, a pure function of the seed. The loop draws from one
/// stream and the check after it replays a second, so the loop keeps only
/// a digest per read.
class OpStream {
 public:
  explicit OpStream(uint64_t seed) : rng_(seed) {}

  PaperOp Next() {
    PaperOp op;
    if (op_no_++ % 10 == 9) {
      op.write = true;
      op.insert = live_.size() < kWriteWindow || (flip_ = !flip_);
      if (op.insert) {
        op.posting = Posting{static_cast<int64_t>(rng_.Uniform(kKeys)),
                             static_cast<uint32_t>(rng_.Uniform(kSets)),
                             next_oid_++};
        live_.push_back(op.posting);
      } else {
        op.posting = live_.front();
        live_.pop_front();
      }
    } else {
      op.query = MakeQuery(kReadCycle[read_no_++ % kReadCycleLength], rng_);
    }
    return op;
  }

 private:
  Rng rng_;
  uint64_t op_no_ = 0, read_no_ = 0;
  bool flip_ = false;
  std::deque<Posting> live_;  // Inserted postings, oldest first.
  Oid next_oid_ = kFirstWriteOid;
};

struct LoopResult {
  Windowed read_us, write_us, ops_done;
  LatencyRecorder read_by_type[kQueryTypes];
  uint64_t ops = 0;
  uint64_t errors = 0;
  IoDelta read_io;  // Counter deltas bracketing reads (traced phase only).
};

/// Runs the closed loop for `seconds`, drawing ops from `stream` and
/// appending the digest of every read's sorted rows to `digests`.
LoopResult RunLoop(PaperIndex& idx, double seconds, OpStream* stream,
                   std::vector<uint64_t>* digests, Tracer* tracer) {
  LoopResult r;
  std::unique_ptr<Tracer::Buffer> buf;
  if (tracer != nullptr) buf = std::make_unique<Tracer::Buffer>(tracer);
  const Clock::time_point start = Clock::now();
  r.read_us = r.write_us = r.ops_done = Windowed(start, seconds);
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (uint64_t i = 0; Clock::now() < stop; ++i) {
    const PaperOp op = stream->Next();
    if (op.write) {
      Tracer::Scope root(buf.get(), "op.write", i);
      const Clock::time_point t0 = Clock::now();
      uindex::Status s;
      {
        Tracer::Scope w(buf.get(), op.insert ? "btree.insert" : "btree.remove",
                        i);
        s = op.insert ? idx.index->Insert(Value::Int(op.posting.key),
                                          idx.SetId(op.posting.set),
                                          op.posting.oid)
                      : idx.index->Remove(Value::Int(op.posting.key),
                                          idx.SetId(op.posting.set),
                                          op.posting.oid);
      }
      const Clock::time_point t1 = Clock::now();
      r.write_us.Add(t1, UsBetween(t0, t1));
      if (!s.ok()) {
        ++r.errors;
        break;
      }
    } else {
      const std::vector<uindex::ClassId> classes = ClassesOf(idx, op.query);
      uindex::IoStats before;
      if (tracer != nullptr) before = idx.buffers->stats();
      uindex::Result<std::vector<Oid>> rows = [&] {
        Tracer::Scope root(buf.get(), "op.read", i);
        const Clock::time_point t0 = Clock::now();
        // Each read is one query epoch, as the library's own experiment
        // runs its queries. Without it the residency set only grows and
        // later reads become uncharged fetches, so the loop would measure
        // a moving target.
        idx.buffers->BeginQuery();
        uindex::Result<std::vector<Oid>> out = [&] {
          Tracer::Scope parscan(buf.get(), "core.parscan", i);
          return idx.index->Search(Value::Int(op.query.lo),
                                   Value::Int(op.query.hi), classes);
        }();
        const Clock::time_point t1 = Clock::now();
        const double us = UsBetween(t0, t1);
        r.read_us.Add(t1, us);
        r.read_by_type[op.query.type].Record(us);
        return out;
      }();
      if (tracer != nullptr) {
        r.read_io.Accumulate(IoDelta::Between(before, idx.buffers->stats()));
      }
      if (!rows.ok()) {
        ++r.errors;
        break;
      }
      std::vector<Oid> sorted = std::move(rows).value();
      std::sort(sorted.begin(), sorted.end());
      digests->push_back(DigestOf(sorted));
    }
    r.ops_done.Count(Clock::now());
    ++r.ops;
  }
  return r;
}

/// The prefetch pipeline's per-layer figures: a serial pass over the read
/// cycle with a prefetcher attached as the Database attaches it, each read
/// its own query epoch and checked against `model`. The prefetcher is
/// detached again at the end.
void ProbePrefetch(PaperIndex& idx, const Model& model, uint64_t seed,
                   Report* report) {
  idx.io_pool = std::make_unique<uindex::exec::ThreadPool>(kPrefetchWorkers);
  idx.prefetcher = std::make_unique<uindex::PrefetchScheduler>(
      idx.buffers.get(), idx.io_pool.get());
  idx.buffers->SetPrefetcher(idx.prefetcher.get());
  Rng rng(seed ^ 0xFE7C4);
  const uindex::IoStats before = idx.buffers->stats();
  double reads = 0;
  for (int n = 0; n < kPrefetchProbeCycles * kReadCycleLength; ++n) {
    const SetQuery q = MakeQuery(kReadCycle[n % kReadCycleLength], rng);
    idx.buffers->BeginQuery();
    uindex::Result<std::vector<Oid>> rows = idx.index->Search(
        Value::Int(q.lo), Value::Int(q.hi), ClassesOf(idx, q));
    ++reads;
    report->Attempt();
    if (!rows.ok()) {
      report->Failed();
      report->Fail("prefetch probe: " + rows.status().ToString());
      break;
    }
    std::vector<Oid> got = std::move(rows).value();
    std::sort(got.begin(), got.end());
    if (got != model.Answer(q)) {
      report->Fail(std::string("prefetch probe rows differ for ") +
                   kTypeNames[q.type]);
      break;
    }
  }
  idx.prefetcher->Drain();
  const IoDelta io = IoDelta::Between(before, idx.buffers->stats());
  idx.buffers->SetPrefetcher(nullptr);
  report->Metric("storage.prefetch_useful_ratio",
                 Ratio(io.prefetch_hits, io.prefetch_issued), "ratio");
  report->Metric("storage.prefetch_wasted_per_read",
                 Ratio(io.prefetch_wasted, reads), "count");
}

}  // namespace

void RunPaperSets(const Args& args, Report* report) {
  // --- Set-up, several times; the last instance serves the run. ---------
  std::vector<double> setup_s;
  std::unique_ptr<PaperIndex> idx;
  std::vector<Posting> postings;
  LatencyRecorder insert_us;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    idx.reset();
    const Clock::time_point t0 = Clock::now();
    const bool last = attempt == kSetups - 1;
    if (!Setup(args, attempt, &idx, &postings, last ? &insert_us : nullptr,
               report)) {
      return;
    }
    setup_s.push_back(UsSince(t0) / 1e6);
  }
  const double index_pages =
      static_cast<double>(idx->pager->live_page_count());

  // --- Serial pass: the paper's metric, exact per query. ----------------
  Model model(postings);
  Rng serial_rng(args.seed ^ 0x5E7A1);
  double pages_total = 0;
  uint64_t serial_queries = 0;
  Digest run_digest;
  for (int type = 0; type < kQueryTypes; ++type) {
    for (int n = 0; n < kSerialPerType; ++n) {
      const SetQuery q = MakeQuery(type, serial_rng);
      idx->buffers->BeginQuery();
      const uint64_t before = idx->buffers->stats().pages_read.load();
      uindex::Result<std::vector<Oid>> rows = idx->index->Search(
          Value::Int(q.lo), Value::Int(q.hi), ClassesOf(*idx, q));
      pages_total += idx->buffers->stats().pages_read.load() - before;
      ++serial_queries;
      report->Attempt();
      if (!rows.ok()) {
        report->Failed();
        report->Fail("serial search: " + rows.status().ToString());
        return;
      }
      std::vector<Oid> got = std::move(rows).value();
      std::sort(got.begin(), got.end());
      if (got != model.Answer(q)) {
        report->Fail(std::string("serial pass rows differ for ") +
                     kTypeNames[type]);
        return;
      }
      run_digest.Add(DigestOf(got));
    }
  }

  // --- Closed loop. A traced run measures an untraced half, then the
  // traced half continuing the same op stream. --------------------------
  const uint64_t stream_seed = args.seed ^ 0xC105ED;
  OpStream stream(stream_seed);
  std::vector<uint64_t> digests;
  Tracer tracer;
  LoopResult main_loop, traced_loop;
  if (!args.trace) {
    main_loop = RunLoop(*idx, args.seconds, &stream, &digests, nullptr);
  } else {
    main_loop = RunLoop(*idx, args.seconds / 2, &stream, &digests, nullptr);
    if (main_loop.errors == 0) {
      traced_loop =
          RunLoop(*idx, args.seconds / 2, &stream, &digests, &tracer);
    }
  }
  const uint64_t loop_ops = main_loop.ops + traced_loop.ops;
  const uint64_t loop_errors = main_loop.errors + traced_loop.errors;
  report->Attempt(loop_ops + loop_errors);
  if (loop_errors != 0) {
    report->Failed(loop_errors);
    report->Fail("closed loop: an index call failed");
    return;
  }

  // --- Check every read of the loop against the model, replaying the op
  // stream and its writes in order. ---------------------------------------
  OpStream replay(stream_seed);
  size_t next_digest = 0;
  for (uint64_t n = 0; n < loop_ops; ++n) {
    const PaperOp op = replay.Next();
    if (op.write) {
      op.insert ? model.Insert(op.posting) : model.Remove(op.posting);
      continue;
    }
    const uint64_t got = digests[next_digest++];
    if (DigestOf(model.Answer(op.query)) != got) {
      report->Fail(std::string("loop rows differ for ") +
                   kTypeNames[op.query.type]);
      return;
    }
    run_digest.Add(got);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "rows digest %016llx over %llu serial and %llu loop ops",
                static_cast<unsigned long long>(run_digest.value()),
                static_cast<unsigned long long>(serial_queries),
                static_cast<unsigned long long>(loop_ops));
  report->Note(buf);
  std::snprintf(buf, sizeof(buf),
                "index %.0f pages against %zu pool frames (%.1fx)",
                index_pages, kPoolFrames, index_pages / kPoolFrames);
  report->Note(buf);

  // --- End-to-end metrics. ---------------------------------------------
  const LoopResult& m = main_loop;
  report->Metric("setup_s", Median(setup_s), "s", kSetups);
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report->Metric("index_pages", index_pages, "pages");
  report->Metric("pages_per_read", pages_total / serial_queries, "pages",
                 static_cast<int64_t>(serial_queries));
  report->Percentile("read_p50_us", m.read_us, 50);
  report->Percentile("read_p90_us", m.read_us, 90);
  report->Percentile("read_p99_us", m.read_us, 99);
  report->Percentile("write_p50_us", m.write_us, 50);
  report->Percentile("write_p90_us", m.write_us, 90);
  report->Metric("ops_per_s", m.ops_done.Rate(), "ops/s",
                 static_cast<int64_t>(m.ops));
  report->Metric("failed_ratio", 0, "ratio");
  report->Note("ops/s per window: " + ValuesText(m.ops_done.Rates()));
  for (int t = 0; t < kQueryTypes; ++t) {
    report->Percentile(std::string("detail.read_p50_us.") + kTypeNames[t],
                       m.read_by_type[t], 50);
  }
  if (!args.trace) return;

  // --- Per-layer metrics from the traced half. ---------------------------
  const LoopResult& t = traced_loop;
  const IoDelta& io = t.read_io;
  const double reads = static_cast<double>(t.read_us.size());
  report->Metric("storage.pool_miss_ratio",
                 Ratio(io.pool_misses, io.pool_hits + io.pool_misses),
                 "ratio");
  report->Metric("storage.evictions_per_read", Ratio(io.evictions, reads),
                 "count");
  report->Metric("btree.parse_ratio",
                 Ratio(io.nodes_parsed, io.nodes_parsed + io.node_cache_hits),
                 "ratio");
  report->Metric("btree.bytes_decoded_per_read",
                 Ratio(io.bytes_decoded, reads), "bytes");
  report->Percentile("btree.insert_us.p50", insert_us, 50);
  report->Percentile("btree.insert_us.p99", insert_us, 99);
  const std::map<std::string, Tracer::NameStats> spans = tracer.Summarize();
  report->Percentile("core.parscan_us.p50",
                     SpanDurations(spans, "core.parscan"), 50);
  report->Percentile("core.parscan_us.p99",
                     SpanDurations(spans, "core.parscan"), 99);
  report->Metric("harness.trace_overhead.read_p50",
                 Ratio(t.read_us.Percentile(50),
                       m.read_us.Percentile(50)),
                 "ratio");
  report->Metric("harness.trace_overhead.ops_per_s",
                 Ratio(m.ops_done.Rate(), t.ops_done.Rate()),
                 "ratio");
  ProbePrefetch(*idx, model, args.seed, report);
  ReportSpans(tracer, spans, args.work_dir + "/trace-paper_sets.jsonl",
              report);
}

}  // namespace perfbench
