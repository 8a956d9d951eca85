#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t SamplesBeyond(const LatencyRecorder& r, double p) {
  // The rank LatencyRecorder::PercentileUs picks.
  const uint64_t n = r.Count();
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * n + 0.5);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

std::string ValuesText(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

void Windowed::Merge(const Windowed& other) {
  if (recorders_.empty() && !other.recorders_.empty()) {
    recorders_.resize(counts_.size());
  }
  for (size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    if (!other.recorders_.empty()) recorders_[i].Merge(other.recorders_[i]);
  }
}

uint64_t Windowed::size() const {
  uint64_t n = 0;
  for (const LatencyRecorder& r : recorders_) n += r.Count();
  return n;
}

std::vector<double> Windowed::Rates() const {
  std::vector<double> v;
  for (uint64_t c : counts_) v.push_back(c / window_s_);
  return v;
}

std::vector<double> Windowed::GroupPercentiles(double p) const {
  // Ten samples beyond p need 10 / (1 - p/100) samples in all.
  const uint64_t needed =
      static_cast<uint64_t>(std::ceil(10 / (1 - p / 100) - 1e-9));
  std::vector<LatencyRecorder> groups;
  LatencyRecorder open;
  for (const LatencyRecorder& r : recorders_) {
    open.Merge(r);
    if (open.Count() >= needed) {
      groups.push_back(open);
      open = LatencyRecorder();
    }
  }
  if (open.Count() > 0) {
    if (groups.empty()) {
      groups.push_back(open);
    } else {
      groups.back().Merge(open);
    }
  }
  std::vector<double> out;
  for (const LatencyRecorder& g : groups) out.push_back(g.PercentileUs(p));
  return out;
}

double Windowed::Percentile(double p) const {
  const std::vector<double> v = GroupPercentiles(p);
  return v.empty() ? 0 : Quantile(v, kFastQuantile);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer::Buffer::~Buffer() { tracer_->Absorb(&spans_); }

int64_t Tracer::Buffer::Open(const char* name, uint64_t request) {
  const int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, tracer_->NowNs(), 0, parent, request});
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Buffer::Close(int64_t index) {
  spans_[index].end_ns = tracer_->NowNs();
  open_.pop_back();
}

void Tracer::Absorb(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : *spans) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  spans->clear();
}

std::vector<int64_t> Tracer::ChildNs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  return child_ns;
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  const std::vector<int64_t> child_ns = ChildNs();
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameStats& st = out[s.name];
    const double dur = (s.end_ns - s.start_ns) / 1000.0;
    st.duration_us.Record(dur);
    st.self_us.Record(dur - child_ns[i] / 1000.0);
  }
  return out;
}

double Tracer::ChildCoverage() const {
  const std::vector<int64_t> child_ns = ChildNs();
  double sum = 0;
  size_t roots = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || s.end_ns <= s.start_ns) continue;
    sum += static_cast<double>(child_ns[i]) / (s.end_ns - s.start_ns);
    ++roots;
  }
  return roots == 0 ? 0 : sum / roots;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::Percentile(const std::string& name, const LatencyRecorder& r,
                        double p) {
  Metric(name, r.PercentileUs(p), "us", static_cast<int64_t>(r.Count()));
  if (r.Count() > 0 && SamplesBeyond(r, p) < 10) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: only %llu of %llu samples lie beyond p%g",
                  name.c_str(),
                  static_cast<unsigned long long>(SamplesBeyond(r, p)),
                  static_cast<unsigned long long>(r.Count()), p);
    Note(buf);
  }
}

void Report::Percentile(const std::string& name, const Windowed& w,
                        double p) {
  const std::vector<double> groups = w.GroupPercentiles(p);
  Metric(name, w.Percentile(p), "us",
         static_cast<int64_t>(w.size()));
  Note(name + " per window group: " + ValuesText(groups));
  if (w.size() > 0 && static_cast<double>(w.size()) * (1 - p / 100) < 10) {
    Note(name + ": fewer than ten samples lie beyond the percentile");
  }
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Invalidate(const std::string& why) {
  valid_ = false;
  std::fprintf(stderr, "INVALID RUN: %s\n", why.c_str());
  notes_.push_back("INVALID RUN: " + why);
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "MISMATCH: %s\n", why.c_str());
  notes_.push_back("MISMATCH: " + why);
}

void Report::Emit() const {
  std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Entry& e : entries_) {
    if (e.samples >= 0) {
      std::printf("%-36s %16.4f  %-6s n=%lld\n", e.name.c_str(), e.value,
                  e.unit.c_str(), static_cast<long long>(e.samples));
    } else {
      std::printf("%-36s %16.4f  %-6s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  for (const std::string& n : notes_) std::printf("note: %s\n", n.c_str());
  if (!valid_) {
    std::fflush(stdout);
    return;
  }
  std::string line = "PERFBENCH_RESULT {\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %lld}",
                  i == 0 ? "" : ", ", e.name.c_str(),
                  std::isfinite(e.value) ? e.value : 0.0, e.unit.c_str(),
                  static_cast<long long>(e.samples));
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

const LatencyRecorder& SpanDurations(
    const std::map<std::string, Tracer::NameStats>& spans, const char* name) {
  static const LatencyRecorder kEmpty;
  auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second.duration_us;
}

void ReportSpans(const Tracer& tracer,
                 const std::map<std::string, Tracer::NameStats>& spans,
                 const std::string& path, Report* report) {
  report->Metric("harness.span_coverage", tracer.ChildCoverage(), "ratio");
  for (const auto& [name, st] : spans) {
    report->Metric("span." + name + ".self_us_mean", st.self_us.MeanUs(),
                   "us", static_cast<int64_t>(st.self_us.Count()));
  }
  if (tracer.Write(path)) report->Note("spans written to " + path);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // Linux reports KiB.
}

std::string HostStamp() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%ld compiler=\"%s\" build_type=%s ndebug=%s",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                "yes"
#else
                "no"
#endif
  );
  return buf;
}

double HostReferenceMs() {
  // Strided updates and dependent reads over 16 MiB: sensitive to both
  // core speed and memory contention from other tenants of the host.
  std::vector<uint32_t> v(1 << 22);
  std::vector<double> ms;
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t s = 0;
    for (int k = 0; k < 4; ++k) {
      for (size_t i = 0; i < v.size(); i += 7) {
        v[i] += static_cast<uint32_t>(i);
        s += v[(i * 13) & (v.size() - 1)];
      }
    }
    sink = sink + s;
    ms.push_back(UsSince(t0) / 1000);
  }
  return Median(ms);
}

IoDelta IoDelta::Between(const uindex::IoStats& before,
                         const uindex::IoStats& after) {
  auto d = [](const std::atomic<uint64_t>& a, const std::atomic<uint64_t>& b) {
    return static_cast<double>(b.load(std::memory_order_relaxed)) -
           static_cast<double>(a.load(std::memory_order_relaxed));
  };
  IoDelta out;
  out.pages_read = d(before.pages_read, after.pages_read);
  out.pool_hits = d(before.pool_hits, after.pool_hits);
  out.pool_misses = d(before.pool_misses, after.pool_misses);
  out.evictions = d(before.evictions, after.evictions);
  out.nodes_parsed = d(before.nodes_parsed, after.nodes_parsed);
  out.node_cache_hits = d(before.node_cache_hits, after.node_cache_hits);
  out.bytes_decoded = d(before.bytes_decoded, after.bytes_decoded);
  out.prefetch_issued = d(before.prefetch_issued, after.prefetch_issued);
  out.prefetch_hits = d(before.prefetch_hits, after.prefetch_hits);
  out.prefetch_wasted = d(before.prefetch_wasted, after.prefetch_wasted);
  out.epochs_published = d(before.epochs_published, after.epochs_published);
  out.pages_cow = d(before.pages_cow, after.pages_cow);
  out.commit_batches = d(before.commit_batches, after.commit_batches);
  out.commit_records = d(before.commit_records, after.commit_records);
  return out;
}

void IoDelta::Accumulate(const IoDelta& o) {
  pages_read += o.pages_read;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  evictions += o.evictions;
  nodes_parsed += o.nodes_parsed;
  node_cache_hits += o.node_cache_hits;
  bytes_decoded += o.bytes_decoded;
  prefetch_issued += o.prefetch_issued;
  prefetch_hits += o.prefetch_hits;
  prefetch_wasted += o.prefetch_wasted;
  epochs_published += o.epochs_published;
  pages_cow += o.pages_cow;
  commit_batches += o.commit_batches;
  commit_records += o.commit_records;
}

}  // namespace perfbench
