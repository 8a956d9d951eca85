#ifndef UINDEX_NET_ADMISSION_H_
#define UINDEX_NET_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/status.h"

namespace uindex {
namespace net {

/// A shed is `ResourceExhausted("busy: " + kShedMessage)`: the binary front
/// ends answer it with `kBusy` (the message alone), the HTTP gateway with a
/// 429. Every other refusal — a drain included — is a plain error.
inline constexpr char kShedMessage[] =
    "query shed by admission control; retry later";

inline bool IsShed(const Status& status) {
  return status.IsResourceExhausted() &&
         status.message().rfind("busy: ", 0) == 0;
}

/// One bounded execution budget shared by every front end of a process.
///
/// Factored out of `Server` (PR 4) so the HTTP gateway (src/http/) and the
/// binary protocol draw from the SAME budget: at most `max_inflight`
/// requests execute at once, at most `max_queued` more wait for a slot,
/// and anything beyond that is shed with a typed rejection (`kBusy` on the
/// wire, 429 over HTTP). A shed caused by binary-protocol load is
/// therefore observable on the HTTP side and vice versa — there is one
/// gate, not one per protocol.
///
/// Shutdown protocol: `BeginShutdown` wakes every queued waiter (they
/// return `kShuttingDown`) and refuses new admissions; `WaitDrained`
/// blocks until every admitted request has released its slot. Delivery of
/// the responses is the connection runtime's guarantee (net/conn_runtime.h),
/// not the gate's. Front ends reach the gate through
/// `ConnRuntime::Admit`, which turns an outcome into a typed `Status`.
class AdmissionGate {
 public:
  enum class Outcome { kAdmitted, kBusy, kShuttingDown };

  AdmissionGate(size_t max_inflight, size_t max_queued)
      : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
        max_queued_(max_queued) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Takes one execution slot, waiting in the bounded queue if none is
  /// free. `kBusy` when the queue is full, `kShuttingDown` during drain.
  Outcome Admit() {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      return Outcome::kShuttingDown;
    }
    if (inflight_ < max_inflight_) {
      ++inflight_;
      admitted_total_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kAdmitted;
    }
    if (waiting_ >= max_queued_) {
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      return Outcome::kBusy;
    }
    ++waiting_;
    cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) ||
             inflight_ < max_inflight_;
    });
    --waiting_;
    if (stopping_.load(std::memory_order_acquire)) {
      return Outcome::kShuttingDown;
    }
    ++inflight_;
    admitted_total_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kAdmitted;
  }

  /// Returns an admitted slot once its request has executed.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    cv_.notify_all();
  }

  /// Refuses new admissions and wakes queued waiters. Idempotent.
  void BeginShutdown() {
    stopping_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  /// Blocks until every admitted request has released its slot.
  void WaitDrained() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  // ------------------------------------------------ observability gauges
  size_t inflight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_;
  }
  size_t waiting() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_;
  }
  size_t max_inflight() const { return max_inflight_; }
  size_t max_queued() const { return max_queued_; }
  /// Requests shed with `kBusy` across ALL protocols sharing this gate.
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }
  uint64_t admitted_total() const {
    return admitted_total_.load(std::memory_order_relaxed);
  }

 private:
  const size_t max_inflight_;
  const size_t max_queued_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t inflight_ = 0;
  size_t waiting_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> admitted_total_{0};
};

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_ADMISSION_H_
