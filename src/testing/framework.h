#ifndef QTF_TESTING_FRAMEWORK_H_
#define QTF_TESTING_FRAMEWORK_H_

#include <memory>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "compress/compression.h"
#include "compress/matching.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_cache.h"
#include "qgen/generation.h"
#include "qgen/test_suite.h"
#include "rules/default_rules.h"
#include "storage/tpch.h"
#include "testing/correctness.h"

namespace qtf {

/// One-stop assembly of the rule-testing framework of Figure 2: the fixed
/// test database, the rule-based optimizer with its testing extensions,
/// query generation, test-suite generation/compression, correctness
/// execution, and the observability registry they all report into.
/// Examples, tests and benchmarks build on this facade.
class RuleTestFramework {
 public:
  /// Everything configurable about a framework instance, in one place.
  /// The serving layer's admission bound and default deadline live in
  /// RuleTestService::Config, the only code that reads them.
  struct Options {
    /// Scale of the TPC-H-style test database.
    TpchConfig tpch;
    /// Rule registry; null means MakeDefaultRuleRegistry() (pass a custom
    /// one to inject rules, e.g. buggy variants for harness demos).
    std::unique_ptr<RuleRegistry> rules;
    /// Worker threads for test-suite generation and the parallel
    /// edge-cost / compression paths. 1 (the default) means no pool —
    /// everything runs serial.
    int threads = 1;
    /// Capacity of the shared plan cache.
    size_t plan_cache_capacity = 4096;
    /// Optional receiver for PhaseSpan begin/end events. Borrowed, must be
    /// thread-safe and outlive the framework; null disables tracing.
    obs::TraceSink* trace_sink = nullptr;
    /// Deterministic fault injection (docs/robustness.md). seed == 0 (the
    /// default) builds no injector at all; a nonzero seed wires an injector
    /// owned by the framework into the optimizer, edge-cost provider paths,
    /// and correctness execution, reporting into qtf.robustness.* metrics.
    FaultInjector::Config fault_injector;
  };

  /// Builds the framework as configured, after validating the options:
  /// nonsensical values (non-positive `threads`, zero
  /// `plan_cache_capacity`, an out-of-range fault probability or a
  /// non-positive TPC-H scale) return kInvalidArgument naming the offending
  /// field instead of being accepted silently.
  static Result<std::unique_ptr<RuleTestFramework>> Create(Options options);

  const Database& db() const { return *db_; }
  const Catalog& catalog() const { return db_->catalog(); }
  const RuleRegistry& rules() const { return *registry_; }
  /// Mutable registry access for runtime rule loading (the service's
  /// LoadRules path). Callers must serialize registration against
  /// concurrent Optimize() calls and call optimizer()->SyncRuleMetrics()
  /// after growing the registry.
  RuleRegistry* mutable_rules() { return registry_.get(); }
  Optimizer* optimizer() { return optimizer_.get(); }
  /// Process-wide plan cache shared by suite generation, compression and
  /// correctness runs (attached to the optimizer at Create time). Use
  /// PlanCacheDetachGuard to benchmark cold searches.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  /// Hash-consing interner canonicalizing every logical tree this framework
  /// optimizes or generates (owned by the optimizer; see
  /// docs/architecture.md). Exposed for tests and tools that build trees
  /// outside the framework and want them in the same canonical space.
  NodeInterner* interner() { return optimizer_->interner(); }
  TargetedQueryGenerator* generator() { return generator_.get(); }
  TestSuiteGenerator* suite_generator() { return suite_generator_.get(); }
  CorrectnessRunner* runner() { return runner_.get(); }

  /// Registry every component of this framework reports into; snapshot it
  /// for experiment accounting (see docs/observability.md).
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Worker pool sized by Options::threads; null when threads <= 1. The
  /// suite generator uses it from Create on; attach it to an
  /// EdgeCostProvider (set_thread_pool) to parallelize compression.
  ThreadPool* thread_pool() { return pool_.get(); }

  /// The fault injector built from Options::fault_injector; null when the
  /// configured seed was 0. Use set_enabled(false) to run a clean phase
  /// (e.g. suite generation) before a chaos phase.
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Ids of the logical (exploration) rules — the rule set R the paper's
  /// experiments target.
  std::vector<RuleId> LogicalRules() const {
    return registry_->ExplorationRuleIds();
  }

  /// All unordered pairs over the first `n` logical rules (nC2 targets).
  std::vector<RuleTarget> LogicalRulePairs(int n) const;

  /// Singleton targets over the first `n` logical rules.
  std::vector<RuleTarget> LogicalRuleSingletons(int n) const;

 private:
  RuleTestFramework() = default;

  // metrics_ is declared first (destroyed last): every component below
  // holds pointers into it.
  obs::MetricsRegistry metrics_;
  // fault_injector_ before optimizer_: the optimizer (and everything built
  // on it) borrows the injector.
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<RuleRegistry> registry_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<TargetedQueryGenerator> generator_;
  std::unique_ptr<TestSuiteGenerator> suite_generator_;
  std::unique_ptr<CorrectnessRunner> runner_;
  // pool_ last: workers must drain before anything they touch dies.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace qtf

#endif  // QTF_TESTING_FRAMEWORK_H_
