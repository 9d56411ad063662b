#ifndef QTF_OPTIMIZER_OPTIMIZER_H_
#define QTF_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/result.h"
#include "exec/physical.h"
#include "logical/interner.h"
#include "logical/query.h"
#include "obs/metrics.h"
#include "optimizer/cost_model.h"
#include "optimizer/rule.h"

namespace qtf {

class PlanCache;

/// A set of rule ids — RuleSet(q) in the paper's notation.
using RuleIdSet = std::set<RuleId>;

/// Per-invocation optimizer configuration. `disabled_rules` implements the
/// paper's Plan(q, ¬R) extension: the listed rules are never applied, which
/// can only shrink the search space (so Cost(q) <= Cost(q, ¬R) holds by
/// construction — the property both TopKIndependent's approximation bound
/// and the monotonicity pruning rely on).
struct OptimizerOptions {
  RuleIdSet disabled_rules;
  /// Absolute deadline of the caller's request (default: never), polled
  /// every 64 exploration checks. When it passes, the search stops
  /// exploring, still implements and costs the memo it has, and returns
  /// the best plan found so far with `budget_exhausted` set; it only fails
  /// (kDeadlineExceeded) when nothing is plannable.
  Deadline deadline;
  /// Polled at task-loop granularity; a triggered token makes Optimize
  /// return kCancelled promptly (no partial result).
  CancellationToken cancel;
  /// Decorrelates fault-injection decisions across retries of the same
  /// query: callers bump this per attempt so a deterministic injector
  /// re-rolls its per-search decisions (see docs/robustness.md).
  uint64_t fault_salt = 0;
};

/// Result of optimizing one query.
struct OptimizeResult {
  PhysicalOpPtr plan;
  double cost = 0.0;
  /// RuleSet(q): ids of rules whose substitution function was invoked
  /// during this optimization (pattern matched and preconditions held).
  RuleIdSet exercised_rules;
  /// Search statistics.
  int group_count = 0;
  int64_t expr_count = 0;
  bool saturated = false;
  /// True when the deadline truncated exploration: `plan` is the best of
  /// the expressions explored in time, so `cost` is an upper bound on the
  /// untruncated Cost(q, ¬R). Such results are never inserted into the
  /// plan cache.
  bool budget_exhausted = false;
};

/// The transformation-based query optimizer (paper Section 2.1) with the
/// two testing extensions of Section 2.3: RuleSet tracking and rule
/// disabling.
///
/// Optimize() is thread-safe: each invocation searches its own
/// stack-allocated memo, the registry and cost model are read-only, the
/// invocation counter is atomic and the plan cache locks internally. This
/// is what lets EdgeCostProvider fan independent Cost(q, ¬R) invocations
/// across a ThreadPool (see docs/parallelism.md).
class Optimizer {
 public:
  /// `rules` and `cost_model` must outlive the optimizer. `metrics` is the
  /// registry all search accounting lands in (invocations, rules fired per
  /// RuleId, memo sizes — see docs/observability.md); when null the
  /// optimizer owns a private registry, so accounting behaves identically
  /// with or without the RuleTestFramework facade.
  explicit Optimizer(const RuleRegistry* rules,
                     obs::MetricsRegistry* metrics = nullptr);
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Optimizes `query`, returning the best physical plan, its estimated
  /// cost, and RuleSet(query).
  Result<OptimizeResult> Optimize(const Query& query,
                                  const OptimizerOptions& options);

  /// Convenience overload with default options.
  Result<OptimizeResult> Optimize(const Query& query) {
    return Optimize(query, OptimizerOptions{});
  }

  const RuleRegistry& rules() const { return *rules_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Appends qtf.optimizer.rule_fired.<name> / rule_apply.<name> counters
  /// for rules registered after construction (runtime-loaded DSL rules).
  /// Existing counters keep their pointers. Callers that grow the registry
  /// (e.g. the service's LoadRules) must not run this concurrently with
  /// Optimize() — the service serializes via its registry lock. Without a
  /// sync, late rules are simply uncounted, never out of bounds.
  void SyncRuleMetrics();

  /// Default plan cache consulted by every Optimize() call whose options
  /// don't carry their own (nullptr disables caching). Borrowed; the cache
  /// must outlive the optimizer's use of it. A cache hit still counts as an
  /// invocation — only the search is skipped — so invocation-count-based
  /// experiments (Figure 14) are unaffected by caching.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }
  PlanCache* plan_cache() const { return plan_cache_; }

  /// Fault injector probed at the optimizer's named sites (plan_cache.get,
  /// optimizer.apply_rule). Borrowed, not owned; nullptr (the default)
  /// removes every probe. Components built around this optimizer
  /// (EdgeCostProvider, CorrectnessRunner) inherit it, the same way they
  /// inherit metrics().
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// Number of Optimize() calls made so far — a view over the registry's
  /// `qtf.optimizer.invocations` counter. The monotonicity experiment
  /// (paper Section 5.3.1 / Figure 14) counts optimizer invocations saved.
  int64_t invocation_count() const { return invocations_->Value(); }

  /// The registry this optimizer reports into (never null): the
  /// framework-wide registry when one was injected, else the private one.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Hash-consing interner every Optimize() canonicalizes its input tree
  /// through before cache keying and search (never null; owned by the
  /// optimizer, reporting qtf.interner.* into metrics()). Canonicalization
  /// is purely structural, so results are identical with any interner —
  /// sharing this one across components just collapses structurally-equal
  /// trees to pointer-shared nodes (see docs/architecture.md).
  NodeInterner* interner() const { return interner_.get(); }

 private:
  const RuleRegistry* rules_;
  CostModel cost_model_;
  PlanCache* plan_cache_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when none injected
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<NodeInterner> interner_;
  obs::Counter* invocations_ = nullptr;
  obs::Counter* searches_ = nullptr;   // invocations that ran a full search
  obs::Counter* saturated_ = nullptr;  // searches that hit the memo limit
  /// Searches that hit each cap (qtf.optimizer.truncated.*), whatever
  /// their outcome.
  obs::Counter* truncated_total_exprs_ = nullptr;
  obs::Counter* truncated_group_exprs_ = nullptr;
  obs::Counter* truncated_bindings_ = nullptr;
  obs::Histogram* memo_groups_ = nullptr;
  obs::Histogram* memo_exprs_ = nullptr;
  obs::Histogram* search_seconds_ = nullptr;
  obs::Counter* budget_exhausted_ = nullptr;  // qtf.robustness.*
  obs::Counter* cancelled_ = nullptr;
  /// Per RuleId: searches in which the rule fired (produced a substitute).
  std::vector<obs::Counter*> rule_fired_;
  /// Per RuleId: applications that produced output (every binding counts,
  /// not once per search) — qtf.optimizer.rule_apply.<name>.
  std::vector<obs::Counter*> rule_apply_;
};

}  // namespace qtf

#endif  // QTF_OPTIMIZER_OPTIMIZER_H_
