// Shared machinery of the benchmark: arguments, latency histograms and op
// counts per time window, in-memory spans, the metric report, and host
// facts.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/io_stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double UsSince(Clock::time_point t0) {
  return UsBetween(t0, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1996;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< Scratch files (data file, journal).
};

/// SplitMix64: the benchmark's own generator, so inputs depend only on the
/// seed and not on the standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

using LatencyRecorder = uindex::bench::LatencyRecorder;

/// Samples of `r` above the rank its percentile `p` picks.
uint64_t SamplesBeyond(const LatencyRecorder& r, double p);

/// `v` as space-separated numbers with one decimal, for report notes.
std::string ValuesText(const std::vector<double>& v);

/// Median of a non-empty list.
double Median(std::vector<double> v);

/// The `q`-quantile (0..1) of a non-empty list, interpolating linearly
/// between the two nearest ranks.
double Quantile(std::vector<double> v, double q);

/// One measured phase cut into equal time windows, with an op count and
/// a latency histogram per window. A metric of the phase is taken from
/// the faster windows: a latency is the first quartile of its per-window
/// values and a rate the third quartile. On a shared host, other tenants
/// slow some windows and never speed any up, so noise that covers up to
/// three quarters of the run moves these figures little, while a change
/// in the program moves every window alike.
class Windowed {
 public:
  static constexpr double kWindowSeconds = 0.5;
  /// Quantile of the per-window values a latency metric reports; a rate
  /// reports 1 - kFastQuantile.
  static constexpr double kFastQuantile = 0.25;

  /// Windows of about kWindowSeconds (at least two) over `seconds` from
  /// `start`.
  Windowed(Clock::time_point start, double seconds)
      : start_(start),
        counts_(std::max(2, static_cast<int>(seconds / kWindowSeconds + 0.5)),
                0),
        window_s_(seconds / counts_.size()) {}
  Windowed() : Windowed(Clock::time_point(), 1) {}

  /// Records a latency sample that completed at `at`.
  void Add(Clock::time_point at, double us) {
    if (recorders_.empty()) recorders_.resize(counts_.size());
    recorders_[IndexOf(at)].Record(us);
  }
  /// Counts an op that completed at `at`.
  void Count(Clock::time_point at) { ++counts_[IndexOf(at)]; }
  void Merge(const Windowed& other);

  /// Latency samples over all windows.
  uint64_t size() const;
  /// Each window's completed ops per second.
  std::vector<double> Rates() const;
  /// The third quartile of Rates().
  double Rate() const { return Quantile(Rates(), 1 - kFastQuantile); }

  /// The percentile `p` of each group of consecutive windows, where each
  /// group is as short as it can be while holding enough samples for ten
  /// to lie beyond `p` (the rest of the phase joins the last group).
  std::vector<double> GroupPercentiles(double p) const;
  /// The first quartile of GroupPercentiles(p); 0 without samples.
  double Percentile(double p) const;

 private:
  int IndexOf(Clock::time_point at) const {
    const double s = std::chrono::duration<double>(at - start_).count();
    const int w = s <= 0 ? 0 : static_cast<int>(s / window_s_);
    return w >= static_cast<int>(counts_.size())
               ? static_cast<int>(counts_.size()) - 1
               : w;
  }

  Clock::time_point start_;
  std::vector<uint64_t> counts_;
  double window_s_;
  std::vector<LatencyRecorder> recorders_;  // Empty until the first Add.
};

/// Spans recorded around calls into the library. Each records a name,
/// start, end, parent span and the request id shared by one op's spans.
/// Spans stay in memory; `Write` dumps them once at the end of the run.
/// A null `Tracer*` disables tracing at the call sites.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< Index in the same thread's buffer, or -1.
    uint64_t request;
  };

  /// Per-thread span buffer; one per client thread.
  class Buffer {
   public:
    explicit Buffer(Tracer* tracer) : tracer_(tracer) {}
    ~Buffer();
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    int64_t Open(const char* name, uint64_t request);
    void Close(int64_t index);

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
  };

  /// RAII span; does nothing when `buffer` is null.
  class Scope {
   public:
    Scope(Buffer* buffer, const char* name, uint64_t request)
        : buffer_(buffer),
          index_(buffer ? buffer->Open(name, request) : -1) {}
    ~Scope() {
      if (buffer_ != nullptr) buffer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_;
    int64_t index_;
  };

  struct NameStats {
    LatencyRecorder duration_us;
    LatencyRecorder self_us;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Per span name: durations and self times (duration minus the time its
  /// children cover). Call after every Buffer is destroyed.
  std::map<std::string, NameStats> Summarize() const;

  /// Share of each root ("op") span covered by its child spans, averaged.
  double ChildCoverage() const;

  /// Writes every span as one JSON line each to `path`.
  bool Write(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Absorb(std::vector<Span>* spans);
  /// Per span, the time its children cover. Children of one span never
  /// overlap (a thread runs one call at a time), so that is the sum of
  /// their durations.
  std::vector<int64_t> ChildNs() const;

  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;  // Parent indexes rebased on Absorb.
};

/// The metrics one run measured. `Emit` prints a human-readable table
/// (with sample counts) and, as the last line of a valid run, a
/// machine-readable record the launcher turns into the benchmark's result
/// line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = -1);
  /// A percentile metric, with its sample count; a note flags fewer than
  /// ten samples beyond it.
  void Percentile(const std::string& name, const LatencyRecorder& r,
                  double p);
  /// Windowed::Percentile, with its sample count; a note lists the
  /// values of the window groups it was taken from.
  void Percentile(const std::string& name, const Windowed& w, double p);
  void Note(const std::string& text);
  void Fail(const std::string& why);
  /// The run measured something other than the program (the load
  /// generator fell behind): Emit prints the table but no result record.
  void Invalidate(const std::string& why);
  bool valid() const { return valid_; }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }

  void Emit() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  bool correct_ = true;
  bool valid_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Durations of the spans called `name` in a Tracer::Summarize() result;
/// empty when there are none.
const LatencyRecorder& SpanDurations(
    const std::map<std::string, Tracer::NameStats>& spans, const char* name);

/// Adds each span name's mean self time and the share of op spans their
/// children cover to `report`, then writes the spans to `path`.
void ReportSpans(const Tracer& tracer,
                 const std::map<std::string, Tracer::NameStats>& spans,
                 const std::string& path, Report* report);

/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// Host and build facts stamped on every result.
std::string HostStamp();

/// Milliseconds a fixed reference loop takes (median of five), so a
/// reader can tell host speed drift apart from a change in the program.
/// It touches 16 MiB, so call it only after the workload has read
/// PeakRssMb().
double HostReferenceMs();

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reached).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Counter deltas of an IoStats bracket as plain numbers.
struct IoDelta {
  double pages_read = 0, pool_hits = 0, pool_misses = 0, evictions = 0;
  double nodes_parsed = 0, node_cache_hits = 0, bytes_decoded = 0;
  double prefetch_issued = 0, prefetch_hits = 0, prefetch_wasted = 0;
  double epochs_published = 0, pages_cow = 0;
  double commit_batches = 0, commit_records = 0;

  static IoDelta Between(const uindex::IoStats& before,
                         const uindex::IoStats& after);
  void Accumulate(const IoDelta& d);
};

/// Workload entry points (one per file).
void RunPaperSets(const Args& args, Report* report);
void RunVehicleMixed(const Args& args, Report* report);
void RunServedLadder(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
