#ifndef QTF_COMPRESS_EDGE_COSTS_H_
#define QTF_COMPRESS_EDGE_COSTS_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "qgen/test_suite.h"

namespace qtf {

/// Hash for (target, query) edge keys: packs both 32-bit ints into one
/// word and applies the splitmix64 finalizer, so neighbouring indices
/// spread across buckets.
struct EdgeKeyHash {
  size_t operator()(const std::pair<int, int>& key) const {
    return static_cast<size_t>(Mix64(
        (static_cast<uint64_t>(static_cast<uint32_t>(key.first)) << 32) |
        static_cast<uint64_t>(static_cast<uint32_t>(key.second))));
  }
};

/// Lazily computes and caches the bipartite graph's costs (paper Section
/// 4.1): node costs Cost(q) and edge costs Cost(q, ¬target). Every cache
/// miss is one optimizer invocation — the quantity the monotonicity
/// optimization (Section 5.3.1, Figure 14) saves.
///
/// Concurrency: attach a ThreadPool (set_thread_pool) and the compression
/// algorithms fan independent edge computations across it — Prefetch()
/// batches a frontier of edges, and CompressTopKIndependent runs whole
/// per-target scans as tasks. The cache is mutex-protected and the
/// invocation counter atomic, so results and optimizer_calls() are
/// identical to the serial path (concurrent in-tree callers always request
/// distinct keys; see docs/parallelism.md).
class EdgeCostProvider {
 public:
  EdgeCostProvider(Optimizer* optimizer, const TestSuite* suite)
      : optimizer_(optimizer), suite_(suite) {
    QTF_CHECK(optimizer_ != nullptr && suite_ != nullptr);
    obs::MetricsRegistry* metrics = optimizer_->metrics();
    metric_calls_ = metrics->counter("qtf.edge_cost.optimizer_calls");
    metric_cache_hits_ = metrics->counter("qtf.edge_cost.cache_hits");
    metric_prefetch_waves_ = metrics->counter("qtf.edge_cost.prefetch_waves");
    metric_prefetch_edges_ = metrics->counter("qtf.edge_cost.prefetch_edges");
  }
  virtual ~EdgeCostProvider() = default;
  EdgeCostProvider(const EdgeCostProvider&) = delete;
  EdgeCostProvider& operator=(const EdgeCostProvider&) = delete;

  /// Optional worker pool for Prefetch() and the parallel compression
  /// paths. Borrowed, not owned; nullptr (the default) keeps everything
  /// serial.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Cost(q) with all rules enabled. Taken from the suite's recorded
  /// optimization (no extra optimizer call). Virtual so tests can fake the
  /// cost structure (e.g. the paper's Example 1).
  virtual double NodeCost(int q) const {
    return suite_->queries[static_cast<size_t>(q)].cost;
  }

  /// Cancellation token checked before each edge computation and passed
  /// into every optimizer invocation. kCancelled results are never cached.
  void set_cancellation(CancellationToken cancel) {
    cancel_ = std::move(cancel);
  }

  /// Cost(q, ¬target): optimizes q with the target's rules disabled.
  /// Cached per (target, query). Thread-safe for distinct keys; concurrent
  /// calls for the same uncached key would both count an optimizer
  /// invocation (use Prefetch, which dedupes, for batches).
  ///
  /// Robustness: transient (kUnavailable) failures — injected at the
  /// `prefetch.task` site or surfaced by the optimizer — are retried by
  /// RetryTransient (bounded exponential backoff, seeded jitter). The
  /// final outcome, success or failure, is memoized, so
  /// serial and parallel scans of the same edges observe identical
  /// optimizer_calls(); only kCancelled is never memoized.
  virtual Result<double> EdgeCost(int target, int q);

  /// Batch API: computes and caches every listed (target, query) edge,
  /// fanning the misses across the thread pool. Duplicates and
  /// already-cached edges are skipped, so optimizer_calls() advances
  /// exactly as a serial scan of the same edges would. Without a pool this
  /// is a no-op (the caller's serial loop computes lazily as before).
  /// Implemented on top of the virtual EdgeCost, so fakes stay consistent.
  ///
  /// Edges whose computation failed with kUnavailable (after retries) are
  /// tolerated — the failure is memoized and the caller's lazy path decides
  /// how to degrade (see CompressTopKIndependent). kCancelled and every
  /// other error are propagated.
  Status Prefetch(const std::vector<std::pair<int, int>>& edges);

  /// Optimizer invocations spent on edge costs so far, by this provider.
  /// The same events also land in the registry's cumulative
  /// `qtf.edge_cost.optimizer_calls` counter; this per-instance view exists
  /// because experiments create a fresh provider per run and compare deltas.
  int64_t optimizer_calls() const { return calls_.Value(); }

  const TestSuite& suite() const { return *suite_; }

  /// Registry the provider reports into (the optimizer's); null for test
  /// fakes built without an optimizer. Compression algorithms use this for
  /// their phase spans and run counters.
  obs::MetricsRegistry* metrics() const {
    return optimizer_ != nullptr ? optimizer_->metrics() : nullptr;
  }

 protected:
  /// For test fakes that override the cost surface.
  explicit EdgeCostProvider(const TestSuite* suite)
      : optimizer_(nullptr), suite_(suite) {
    QTF_CHECK(suite_ != nullptr);
  }

 private:
  Optimizer* optimizer_;
  const TestSuite* suite_;
  ThreadPool* pool_ = nullptr;
  CancellationToken cancel_;
  mutable std::mutex mu_;  // guards cache_
  /// Failure memoization: the cached value is the whole Result, so a
  /// permanently-unavailable edge costs the same number of optimizer calls
  /// whether it is hit by Prefetch, a lazy scan, or both.
  std::unordered_map<std::pair<int, int>, Result<double>, EdgeKeyHash> cache_;
  obs::Counter calls_;  // per-instance; see optimizer_calls()
  obs::Counter* metric_calls_ = nullptr;  // registry mirrors (null in fakes)
  obs::Counter* metric_cache_hits_ = nullptr;
  obs::Counter* metric_prefetch_waves_ = nullptr;
  obs::Counter* metric_prefetch_edges_ = nullptr;
};

}  // namespace qtf

#endif  // QTF_COMPRESS_EDGE_COSTS_H_
