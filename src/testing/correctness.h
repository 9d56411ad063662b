#ifndef QTF_TESTING_CORRECTNESS_H_
#define QTF_TESTING_CORRECTNESS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "qgen/test_suite.h"

namespace qtf {

/// A correctness bug found by the harness: executing Plan(q) and
/// Plan(q, ¬target) returned different results, implicating the target's
/// rule(s) (paper Section 2.3).
struct CorrectnessViolation {
  int target = -1;
  int query = -1;
  std::string target_name;
  std::string sql;
  int64_t base_rows = 0;
  int64_t restricted_rows = 0;
};

/// Outcome of executing a (possibly compressed) test suite.
struct CorrectnessReport {
  /// Plans actually executed (base plans once per distinct query, plus one
  /// per validated edge whose plan differed).
  int plans_executed = 0;
  /// Edge validations skipped because Plan(q) and Plan(q, ¬target) were
  /// structurally identical (paper Section 2.3, footnote 1).
  int skipped_identical_plans = 0;
  /// Validations skipped because optimization or execution stayed
  /// kUnavailable after retries (graceful degradation under fault
  /// injection; also counted in `qtf.robustness.skipped_validations`).
  /// A skipped validation is NOT a pass — rerun with a fresh fault seed to
  /// recover the coverage.
  int skipped_unavailable = 0;
  std::vector<CorrectnessViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// The Test Suite Execution module of Figure 2: for each query of the
/// suite's assignment, execute Plan(q) once; for each (target, query) edge,
/// execute Plan(q, ¬target) and compare result bags.
class CorrectnessRunner {
 public:
  CorrectnessRunner(const Database* db, Optimizer* optimizer)
      : db_(db), optimizer_(optimizer) {
    QTF_CHECK(db_ != nullptr && optimizer_ != nullptr);
    obs::MetricsRegistry* metrics = optimizer_->metrics();
    runs_ = metrics->counter("qtf.correctness.runs");
    plans_executed_ = metrics->counter("qtf.correctness.plans_executed");
    skipped_identical_ =
        metrics->counter("qtf.correctness.skipped_identical_plans");
    violations_ = metrics->counter("qtf.correctness.violations");
    skipped_unavailable_ =
        metrics->counter("qtf.robustness.skipped_validations");
    program_cache_.set_metrics(metrics->counter("qtf.exec.eval_cache_hits"),
                               metrics->counter("qtf.exec.eval_cache_misses"));
  }

  /// Validates `assignment` (per target: query indices into the suite).
  /// Pass a CompressionSolution's assignment, or suite.per_target for the
  /// BASELINE mapping. `cancel` is checked between validations and passed
  /// into every optimization; a triggered token makes Run return
  /// kCancelled.
  ///
  /// Robustness: transient (kUnavailable) optimization/execution failures
  /// are retried by RetryTransient with attempt-salted fault decisions; a
  /// validation that stays unavailable is skipped and counted
  /// (CorrectnessReport::skipped_unavailable) rather than failing the run.
  ///
  /// Re-entrant: all mutable state is per-call (the shared EvalProgramCache
  /// and the metrics counters are thread-safe), so one resident runner can
  /// serve concurrent requests, each cancellable by its own token.
  Result<CorrectnessReport> Run(
      const TestSuite& suite,
      const std::vector<std::vector<int>>& assignment,
      CancellationToken cancel = {});

 private:
  /// Optimize with transient-failure retries; `salt_base` keys the fault
  /// decisions of each attempt.
  Result<OptimizeResult> OptimizeWithRetry(const Query& query,
                                           OptimizerOptions options,
                                           uint64_t salt_base,
                                           const CancellationToken& cancel);
  /// Execute with transient-failure retries (fresh Executor per attempt so
  /// the node-sequence keys restart from zero each time).
  Result<ResultSet> ExecuteWithRetry(const Query& query,
                                     const PhysicalOp& plan,
                                     uint64_t salt_base,
                                     const CancellationToken& cancel);

  const Database* db_;
  Optimizer* optimizer_;
  /// Shared across every per-attempt Executor (serial and parallel runs):
  /// Plan(q) and Plan(q, ¬target) overwhelmingly reuse the same predicate
  /// and projection expressions, so compiled EvalPrograms are built once.
  /// Thread-safe; hit/miss counters land in qtf.exec.eval_cache_*.
  EvalProgramCache program_cache_;
  obs::Counter* runs_ = nullptr;
  obs::Counter* plans_executed_ = nullptr;
  obs::Counter* skipped_identical_ = nullptr;
  obs::Counter* violations_ = nullptr;
  obs::Counter* skipped_unavailable_ = nullptr;
};

/// Section-7 query-generation variant support: a rule is *relevant* for a
/// query if disabling it changes the optimizer's chosen plan.
Result<bool> IsRuleRelevant(Optimizer* optimizer, const Query& query,
                            RuleId rule);

}  // namespace qtf

#endif  // QTF_TESTING_CORRECTNESS_H_
