#ifndef QTF_COMMON_DEADLINE_H_
#define QTF_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <memory>

namespace qtf {

/// A point in time after which work should stop. It is absolute, so one
/// deadline handed to every search of a request bounds the request, not
/// each search. Default-constructed deadlines never expire, so code paths
/// without one stay branch-cheap (never() is one comparison against a
/// sentinel).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() : when_(Clock::time_point::max()) {}

  static Deadline After(double seconds) {
    Deadline d;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    return d;
  }

  bool never() const { return when_ == Clock::time_point::max(); }
  bool expired() const { return !never() && Clock::now() >= when_; }

 private:
  Clock::time_point when_;
};

/// Read side of a cancellation signal. Copies share the underlying flag, so
/// a token can be handed to every layer of a run (suite generation,
/// prefetch tasks, compression, correctness execution) and one Cancel()
/// stops them all. A default-constructed token is never cancelled and costs
/// one null check to poll.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True when this token can ever be cancelled (it came from a source).
  bool cancellable() const { return state_ != nullptr; }
  bool cancelled() const {
    return state_ != nullptr && state_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<std::atomic<bool>> state_;
};

/// Write side: owns the flag, hands out tokens. Thread-safe; Cancel() is
/// idempotent and may be called from any thread (that is the point).
class CancellationSource {
 public:
  CancellationSource()
      : state_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(state_); }
  void Cancel() { state_->store(true, std::memory_order_release); }
  bool cancelled() const { return state_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

}  // namespace qtf

#endif  // QTF_COMMON_DEADLINE_H_
