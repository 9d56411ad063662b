#ifndef QTF_SERVICE_ADMISSION_H_
#define QTF_SERVICE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <utility>

#include "obs/metrics.h"

namespace qtf {
namespace service {

/// The admission queue of the serving layer: a bounded count of requests
/// accepted-but-unfinished. TryEnter() either hands out an RAII ticket or
/// refuses immediately — load is shed with kResourceExhausted, never parked
/// on an unbounded queue (docs/serving.md). One gate is shared by every
/// transport in front of a RuleTestService plus its in-process callers, so
/// "queue full" means the same thing everywhere.
///
/// Lock-free: entering is one fetch_add and, on refusal, one fetch_sub;
/// depth is exported as the qtf.service.queue_depth gauge.
class AdmissionGate {
 public:
  /// `max_depth` must be >= 1 (validated by RuleTestService::Create).
  /// `metrics` receives qtf.service.queue_depth / qtf.service.sheds; null
  /// disables reporting (tests exercising the bare gate).
  AdmissionGate(size_t max_depth, obs::MetricsRegistry* metrics)
      : max_depth_(max_depth) {
    if (metrics != nullptr) {
      queue_depth_ = metrics->gauge("qtf.service.queue_depth");
      sheds_ = metrics->counter("qtf.service.sheds");
    }
  }
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// One admitted request's slot. Movable, empty-testable; releases the
  /// slot on destruction.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        gate_ = std::exchange(other.gate_, nullptr);
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    /// True when this ticket holds a slot.
    explicit operator bool() const { return gate_ != nullptr; }

    void Release() {
      if (gate_ != nullptr) {
        gate_->Leave();
        gate_ = nullptr;
      }
    }

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    AdmissionGate* gate_ = nullptr;
  };

  /// Admits one request, or returns an empty ticket (and counts a shed)
  /// when `max_depth` requests are already in flight.
  Ticket TryEnter() {
    size_t depth = depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (depth > max_depth_) {
      depth_.fetch_sub(1, std::memory_order_acq_rel);
      if (sheds_ != nullptr) sheds_->Increment();
      return Ticket();
    }
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(depth));
    }
    return Ticket(this);
  }

  size_t depth() const { return depth_.load(std::memory_order_acquire); }
  size_t max_depth() const { return max_depth_; }

 private:
  void Leave() {
    size_t depth = depth_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(depth));
    }
  }

  const size_t max_depth_;
  std::atomic<size_t> depth_{0};
  obs::Gauge* queue_depth_ = nullptr;
  obs::Counter* sheds_ = nullptr;
};

}  // namespace service
}  // namespace qtf

#endif  // QTF_SERVICE_ADMISSION_H_
