#ifndef QTF_COMMON_FAULT_INJECTION_H_
#define QTF_COMMON_FAULT_INJECTION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace qtf {

/// Named injection sites. A site is a specific fallible call in a hot path;
/// the chaos suite (tests/test_robustness.cc) asserts the framework
/// survives kUnavailable from every one of them. See docs/robustness.md
/// for the catalog.
namespace fault_sites {
inline constexpr const char kPlanCacheGet[] = "plan_cache.get";
inline constexpr const char kOptimizerApplyRule[] = "optimizer.apply_rule";
inline constexpr const char kExecutorNextBatch[] = "executor.next_batch";
inline constexpr const char kPrefetchTask[] = "prefetch.task";
}  // namespace fault_sites

/// Capped exponential backoff with deterministic jitter
/// (FaultInjector::JitterFactor). RetryTransient always uses the defaults,
/// which are sized for the in-process framework — microseconds, not the
/// seconds a network client would use — so chaos tests stay fast.
struct RetryPolicy {
  /// Total tries including the first; <= 1 disables retrying.
  int max_attempts = 3;
  double initial_backoff_micros = 50.0;
  double backoff_multiplier = 2.0;
  double max_backoff_micros = 2000.0;
  /// Backoff is scaled by a factor uniform in [1 - jitter, 1 + jitter].
  double jitter_fraction = 0.5;
};

/// True for errors a retry can clear (the only code the injector emits).
inline bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

/// Sleeps the attempt'th backoff (0-based attempt that just failed),
/// capped and scaled by `jitter_factor`.
inline void SleepForBackoff(const RetryPolicy& policy, int attempt,
                            double jitter_factor) {
  double micros = policy.initial_backoff_micros *
                  std::pow(policy.backoff_multiplier, attempt);
  micros = std::min(micros, policy.max_backoff_micros) * jitter_factor;
  if (micros <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(micros));
}

/// Deterministic, seed-driven fault injector. Whether a probe faults is a
/// pure function of (seed, site, key) — no internal sequence counter — so
/// the same run replays the same faults at any thread count and any task
/// interleaving, which is what lets the chaos suite assert
/// serial == parallel determinism under injected failures.
///
/// Seed 0 disables injection entirely; every probe is then a single relaxed
/// load, and instrumented paths behave bit-for-bit like an uninjected
/// build. set_enabled(false) gates a nonzero-seed injector at runtime
/// (e.g. to build a clean test suite before a chaos phase) without
/// perturbing the hash stream.
///
/// Thread-safe: configuration is immutable after construction, the enable
/// gate is atomic, and counters are lock-free.
class FaultInjector {
 public:
  struct Config {
    /// 0 = injection disabled, probes never fault.
    uint64_t seed = 0;
    /// Per-probe probability of an injected kUnavailable.
    double fault_probability = 0.0;
    /// Per-probe probability of injected latency (independent of faults).
    double latency_probability = 0.0;
    /// Artificial delay injected on a latency hit.
    double latency_micros = 0.0;
  };

  explicit FaultInjector(const Config& config)
      : config_(config), enabled_(config.seed != 0) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const Config& config() const { return config_; }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Runtime gate; a seed-0 injector can never be enabled.
  void set_enabled(bool on) {
    enabled_.store(on && config_.seed != 0, std::memory_order_relaxed);
  }

  /// Resolves the qtf.robustness.* counters this injector reports into.
  /// Inline so the metrics dependency stays in the caller's library (the
  /// common library does not link obs). Pass nullptr to stop reporting.
  void set_metrics(obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) {
      faults_total_ = nullptr;
      latency_total_ = nullptr;
      for (auto& counter : site_faults_) counter = nullptr;
      return;
    }
    faults_total_ = metrics->counter("qtf.robustness.faults_injected");
    latency_total_ = metrics->counter("qtf.robustness.latency_injected");
    site_faults_[0] = metrics->counter(
        std::string("qtf.robustness.fault.") + fault_sites::kPlanCacheGet);
    site_faults_[1] =
        metrics->counter(std::string("qtf.robustness.fault.") +
                         fault_sites::kOptimizerApplyRule);
    site_faults_[2] =
        metrics->counter(std::string("qtf.robustness.fault.") +
                         fault_sites::kExecutorNextBatch);
    site_faults_[3] = metrics->counter(
        std::string("qtf.robustness.fault.") + fault_sites::kPrefetchTask);
  }

  /// Pure decision: would a probe at (site, key) fault? Ignores the enable
  /// gate; exposed for determinism tests.
  bool ShouldFault(const char* site, uint64_t key) const;

  /// One probe at a named site. Returns kUnavailable (and counts it) when
  /// the hash fires, OK otherwise; independently may sleep
  /// config().latency_micros. Callers fold the key from whatever makes the
  /// call unique *and stable across schedules* — an edge (target, query,
  /// attempt), a query fingerprint, a plan-node sequence number.
  /// Const because probing only touches atomics: holders of a
  /// `const FaultInjector*` (e.g. Executor) can probe but not reconfigure.
  Status Probe(const char* site, uint64_t key) const;

  /// Deterministic backoff jitter in [1 - f, 1 + f] for (key, attempt),
  /// f = RetryPolicy::jitter_fraction. Seeded by this injector so retry
  /// timing is reproducible; returns 1 when disabled.
  double JitterFactor(uint64_t key, int attempt, double fraction) const;

  /// Canonical key for per-edge probes: mixes (target, query, attempt) so
  /// a retry re-rolls the fault decision (transient faults clear with
  /// probability 1 - p per extra attempt).
  static uint64_t EdgeKey(int target, int query, int attempt) {
    uint64_t k =
        (static_cast<uint64_t>(static_cast<uint32_t>(target)) << 32) |
        static_cast<uint64_t>(static_cast<uint32_t>(query));
    return k * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(attempt);
  }

 private:
  obs::Counter* SiteCounter(const char* site) const {
    using namespace fault_sites;
    if (std::strcmp(site, kPlanCacheGet) == 0) return site_faults_[0];
    if (std::strcmp(site, kOptimizerApplyRule) == 0) return site_faults_[1];
    if (std::strcmp(site, kExecutorNextBatch) == 0) return site_faults_[2];
    if (std::strcmp(site, kPrefetchTask) == 0) return site_faults_[3];
    return nullptr;
  }

  const Config config_;
  std::atomic<bool> enabled_;
  obs::Counter* faults_total_ = nullptr;
  obs::Counter* latency_total_ = nullptr;
  obs::Counter* site_faults_[4] = {nullptr, nullptr, nullptr, nullptr};
};

/// The retry loop for transient failures. Calls `attempt(salt_of(i))` for
/// i = 0, 1, ... up to RetryPolicy{}.max_attempts times and returns the
/// first result that is OK or not transient, so kCancelled returns at once.
/// `salt_of(i)` keys attempt i's fault decisions and its backoff jitter,
/// which re-rolls the faults of each retry. Between tries it sleeps the
/// jittered backoff and counts qtf.robustness.retries; a transient result
/// on the last attempt counts qtf.robustness.retry_exhausted. A null
/// `injector` means no jitter; a null `metrics` counts nothing.
template <typename SaltFn, typename AttemptFn>
auto RetryTransient(const FaultInjector* injector,
                    obs::MetricsRegistry* metrics, SaltFn salt_of,
                    AttemptFn attempt) -> decltype(attempt(uint64_t{0})) {
  const RetryPolicy policy;
  for (int i = 0;; ++i) {
    const uint64_t salt = salt_of(i);
    auto result = attempt(salt);
    if (result.ok() || !IsTransient(result.status())) return result;
    const bool last = i + 1 >= policy.max_attempts;
    if (metrics != nullptr) {
      metrics
          ->counter(last ? "qtf.robustness.retry_exhausted"
                         : "qtf.robustness.retries")
          ->Increment();
    }
    if (last) return result;
    SleepForBackoff(policy, i,
                    injector != nullptr
                        ? injector->JitterFactor(salt, i,
                                                 policy.jitter_fraction)
                        : 1.0);
  }
}

}  // namespace qtf

#endif  // QTF_COMMON_FAULT_INJECTION_H_
