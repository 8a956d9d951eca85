// Microbenchmarks (google-benchmark) for the substrate operations: B-tree
// insert/put/delete/point-get/scan, key encode/decode, and Parscan vs
// forward scan on a fixed workload. CPU-time oriented, complementing the
// page-read benches.
//
// Before the registered benchmarks run, a custom main() executes the
// decoded-node cache A/B proof: a Table-1-style query mix (value ranges
// crossed with set subsets, answered by both Parscan and forward scanning,
// repeated) with the cache on and off. Rows and page reads must be
// identical and Node::Parse calls must drop at least 3x, or the binary
// exits non-zero.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "btree/btree.h"
#include "core/uindex.h"
#include "util/random.h"
#include "workload/database_generator.h"

namespace uindex {
namespace {

std::string MakeKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user/%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_BTreeInsertSequential(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(1024);
    BufferManager buffers(&pager);
    BTree tree(&buffers);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          tree.Insert(Slice(MakeKey(static_cast<uint64_t>(i))),
                      Slice("value")));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertSequential)->Arg(10000);

// Distinct keys spread over a 100x wider id space, in random order.
std::vector<std::string> ShuffledKeys(int64_t n, uint64_t seed) {
  std::vector<std::string> keys;
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back(MakeKey(static_cast<uint64_t>(i) * 100));
  }
  Random rng(seed);
  rng.Shuffle(keys);
  return keys;
}

void BM_BTreeInsertRandom(benchmark::State& state) {
  const std::vector<std::string> keys = ShuffledKeys(state.range(0), 1);
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(1024);
    BufferManager buffers(&pager);
    BTree tree(&buffers);
    state.ResumeTiming();
    for (const std::string& key : keys) {
      benchmark::DoNotOptimize(tree.Insert(Slice(key), Slice("value")));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertRandom)->Arg(10000);

// Upserts random keys (some repeat, overwriting their payload).
void BM_BTreePutRandom(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(1024);
    BufferManager buffers(&pager);
    BTree tree(&buffers);
    Random rng(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          tree.Put(Slice(MakeKey(rng.Next() % 1000000)), Slice("value")));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreePutRandom)->Arg(10000);

// Deletes every key of a tree in random order, down to an empty root.
void BM_BTreeDeleteRandom(benchmark::State& state) {
  const std::vector<std::string> keys = ShuffledKeys(state.range(0), 2);
  std::vector<std::pair<std::string, std::string>> sorted;
  for (const std::string& key : keys) sorted.emplace_back(key, "value");
  std::sort(sorted.begin(), sorted.end());
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(1024);
    BufferManager buffers(&pager);
    BTree tree(&buffers);
    if (!tree.InsertBatch(sorted).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    state.ResumeTiming();
    for (const std::string& key : keys) {
      benchmark::DoNotOptimize(tree.Delete(Slice(key)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeDeleteRandom)->Arg(10000);

void BM_BTreeInsertBatchSorted(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    entries.emplace_back(MakeKey(static_cast<uint64_t>(i)), "value");
  }
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(1024);
    BufferManager buffers(&pager);
    BTree tree(&buffers);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.InsertBatch(entries));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertBatchSorted)->Arg(10000);

void BM_BTreePointGet(benchmark::State& state) {
  Pager pager(1024);
  BufferManager buffers(&pager);
  BTree tree(&buffers);
  for (uint64_t i = 0; i < 50000; ++i) {
    (void)tree.Insert(Slice(MakeKey(i)), Slice("value"));
  }
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(Slice(MakeKey(rng.Next() % 50000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointGet);

void BM_BTreeFullScan(benchmark::State& state) {
  Pager pager(1024);
  BufferManager buffers(&pager);
  BTree tree(&buffers);
  for (uint64_t i = 0; i < 50000; ++i) {
    (void)tree.Insert(Slice(MakeKey(i)), Slice("value"));
  }
  for (auto _ : state) {
    auto it = tree.NewIterator();
    uint64_t n = 0;
    for (it.SeekToFirst(); it.Valid(); it.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_BTreeFullScan);

struct ParscanFixture {
  ParscanFixture()
      : hier(std::move(BuildSetHierarchy(40)).value()),
        pager(1024),
        buffers(&pager),
        spec(PathSpec::ClassHierarchy(hier.root, "key", Value::Kind::kInt)),
        index(&buffers, &hier.schema, hier.coder.get(), spec) {
    SetWorkloadConfig cfg;
    cfg.num_objects = 60000;
    cfg.num_sets = 40;
    cfg.num_distinct_keys = 1000;
    for (const Posting& p : GeneratePostings(cfg)) {
      UIndex::Entry entry;
      entry.path = {{hier.sets[p.set_index], p.oid}};
      entry.key =
          index.key_encoder().EncodeEntry(Value::Int(p.key), entry.path);
      (void)index.InsertEntry(entry);
    }
  }

  Query RangeQuery() const {
    Query q = Query::Range(Value::Int(100), Value::Int(119));
    ClassSelector sel;
    for (int i = 0; i < 5; ++i) sel.include.push_back({hier.sets[i], false});
    q.With(sel, ValueSlot::Wanted());
    return q;
  }

  SetHierarchy hier;
  Pager pager;
  BufferManager buffers;
  PathSpec spec;
  UIndex index;
};

ParscanFixture& SharedFixture() {
  static ParscanFixture* fixture = new ParscanFixture();
  return *fixture;
}

void BM_ParscanRange(benchmark::State& state) {
  ParscanFixture& f = SharedFixture();
  const Query q = f.RangeQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.index.Parscan(q));
  }
}
BENCHMARK(BM_ParscanRange);

void BM_ForwardScanRange(benchmark::State& state) {
  ParscanFixture& f = SharedFixture();
  const Query q = f.RangeQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.index.ForwardScan(q));
  }
}
BENCHMARK(BM_ForwardScanRange);

void BM_KeyEncodeDecode(benchmark::State& state) {
  ParscanFixture& f = SharedFixture();
  const KeyEncoder& enc = f.index.key_encoder();
  Random rng(3);
  for (auto _ : state) {
    const std::string key = enc.EncodeEntry(
        Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
        {{f.hier.sets[rng.Uniform(40)], static_cast<Oid>(rng.Next())}});
    benchmark::DoNotOptimize(enc.Decode(Slice(key)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyEncodeDecode);

// The tentpole acceptance check: the decoded-node cache must cut
// Node::Parse calls >= 3x on a Table-1-style query mix while leaving the
// result rows and the paper's page-read metric untouched.
int RunCacheExperiment() {
  ParscanFixture& f = SharedFixture();
  NodeCache* const cache = f.index.btree().node_cache();
  bench::JsonReport report("micro_btree");
  if (cache == nullptr) {
    std::fprintf(stderr,
                 "decoded-node cache disabled (UINDEX_NODE_CACHE=off or a "
                 "zero budget); skipping the parse-reduction check\n");
    report.Write();
    return 0;
  }

  // Table-1-style mix: five value ranges, each crossed with a different
  // 8-set subset of the 40-set hierarchy (the query 1-4 shape).
  std::vector<Query> queries;
  for (int lo = 0; lo < 1000; lo += 200) {
    Query q = Query::Range(Value::Int(lo), Value::Int(lo + 19));
    ClassSelector sel;
    for (int i = 0; i < 8; ++i) {
      sel.include.push_back({f.hier.sets[(lo / 200 + i * 5) % 40], false});
    }
    q.With(sel, ValueSlot::Wanted());
    queries.push_back(std::move(q));
  }

  const int reps = 3;
  struct Outcome {
    size_t rows = 0;
    double ns = 0;
    IoStats delta;
    bool ok = true;
  };
  auto run_mix = [&](bool enabled) {
    Outcome out;
    cache->set_enabled(enabled);
    bench::StatsTimer timer(&f.buffers);
    for (int r = 0; r < reps; ++r) {
      for (const Query& q : queries) {
        f.buffers.BeginQuery();  // Fresh read epoch: count this query's pages.
        Result<QueryResult> par = f.index.Parscan(q);
        Result<QueryResult> fwd = f.index.ForwardScan(q);
        if (!par.ok() || !fwd.ok() ||
            par.value().rows != fwd.value().rows) {
          out.ok = false;
          continue;
        }
        out.rows += par.value().rows.size();
      }
    }
    out.ns = timer.ElapsedNs();
    out.delta = timer.Delta();
    return out;
  };

  const Outcome on = run_mix(true);
  const Outcome off = run_mix(false);
  cache->set_enabled(true);

  report.Add("cache=on/table1_mix", on.ns, on.delta);
  report.Add("cache=off/table1_mix", off.ns, off.delta);
  report.Write();

  const uint64_t parses_on =
      on.delta.nodes_parsed.load(std::memory_order_relaxed);
  const uint64_t parses_off =
      off.delta.nodes_parsed.load(std::memory_order_relaxed);
  const uint64_t pages_on =
      on.delta.pages_read.load(std::memory_order_relaxed);
  const uint64_t pages_off =
      off.delta.pages_read.load(std::memory_order_relaxed);
  std::printf(
      "node-cache A/B (Table-1 mix, %d reps x %zu queries):\n"
      "  rows    on=%zu off=%zu\n"
      "  pages   on=%llu off=%llu\n"
      "  parses  on=%llu off=%llu (%.1fx fewer)\n\n",
      reps, queries.size(), on.rows, off.rows,
      static_cast<unsigned long long>(pages_on),
      static_cast<unsigned long long>(pages_off),
      static_cast<unsigned long long>(parses_on),
      static_cast<unsigned long long>(parses_off),
      static_cast<double>(parses_off) /
          static_cast<double>(parses_on > 0 ? parses_on : 1));
  if (!on.ok || !off.ok || on.rows != off.rows) {
    std::fprintf(stderr, "FAIL: result rows differ with the cache on/off\n");
    return 1;
  }
  if (pages_on != pages_off) {
    std::fprintf(stderr, "FAIL: page reads differ with the cache on/off\n");
    return 1;
  }
  if (parses_off < 3 * (parses_on > 0 ? parses_on : 1)) {
    std::fprintf(stderr, "FAIL: node cache saved < 3x Node::Parse calls\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace uindex

int main(int argc, char** argv) {
  const int rc = uindex::RunCacheExperiment();
  if (rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
