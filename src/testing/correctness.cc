#include "testing/correctness.h"

#include <map>
#include <set>

#include "obs/trace.h"

namespace qtf {

namespace {

/// Decorrelates retry attempts of the same validation step: the salt feeds
/// the deterministic fault injector, so each attempt re-rolls its faults.
uint64_t AttemptSalt(uint64_t base, int attempt) {
  return base * 0x9e3779b97f4a7c15ULL +
         static_cast<uint64_t>(static_cast<uint32_t>(attempt));
}

}  // namespace

Result<OptimizeResult> CorrectnessRunner::OptimizeWithRetry(
    const Query& query, OptimizerOptions options, uint64_t salt_base,
    const CancellationToken& cancel) {
  options.cancel = cancel;
  return RetryTransient(
      optimizer_->fault_injector(), optimizer_->metrics(),
      [salt_base](int attempt) { return AttemptSalt(salt_base, attempt); },
      [&](uint64_t salt) {
        options.fault_salt = salt;
        return optimizer_->Optimize(query, options);
      });
}

Result<ResultSet> CorrectnessRunner::ExecuteWithRetry(
    const Query& query, const PhysicalOp& plan, uint64_t salt_base,
    const CancellationToken& cancel) {
  const FaultInjector* injector = optimizer_->fault_injector();
  return RetryTransient(
      injector, optimizer_->metrics(),
      [salt_base](int attempt) { return AttemptSalt(salt_base, attempt); },
      [&](uint64_t salt) -> Result<ResultSet> {
        if (cancel.cancelled()) {
          return Status::Cancelled("correctness run cancelled");
        }
        Executor executor(db_, query.registry.get());
        executor.set_program_cache(&program_cache_);
        executor.set_metrics(optimizer_->metrics());
        if (injector != nullptr) executor.set_fault_injection(injector, salt);
        return executor.Execute(plan);
      });
}

Result<CorrectnessReport> CorrectnessRunner::Run(
    const TestSuite& suite,
    const std::vector<std::vector<int>>& assignment,
    CancellationToken cancel) {
  QTF_CHECK(assignment.size() == suite.targets.size());
  obs::PhaseSpan span(optimizer_->metrics(), "correctness.run");
  runs_->Increment();
  CorrectnessReport report;

  // Execute Plan(q) once per distinct query in the assignment. A query
  // whose base plan stays kUnavailable after retries degrades every edge
  // that references it into a skipped validation (there is nothing to
  // compare against); any other failure aborts the run.
  std::set<int> used;
  for (const auto& queries : assignment) {
    used.insert(queries.begin(), queries.end());
  }
  std::map<int, OptimizeResult> base_plans;
  std::map<int, ResultSet> base_results;
  std::set<int> base_unavailable;
  for (int q : used) {
    if (cancel.cancelled()) {
      return Status::Cancelled("correctness run cancelled");
    }
    const TestCase& test_case = suite.queries[static_cast<size_t>(q)];
    const uint64_t salt_base =
        FaultInjector::EdgeKey(/*target=*/-1, q, /*attempt=*/0);
    Result<OptimizeResult> optimized =
        OptimizeWithRetry(test_case.query, OptimizerOptions{}, salt_base,
                          cancel);
    if (!optimized.ok()) {
      if (IsTransient(optimized.status())) {
        base_unavailable.insert(q);
        continue;
      }
      return optimized.status();
    }
    Result<ResultSet> result =
        ExecuteWithRetry(test_case.query, *optimized->plan, salt_base,
                         cancel);
    if (!result.ok()) {
      if (IsTransient(result.status())) {
        base_unavailable.insert(q);
        continue;
      }
      return result.status();
    }
    ++report.plans_executed;
    base_plans.emplace(q, *std::move(optimized));
    base_results.emplace(q, *std::move(result));
  }

  // Validate every (target, query) edge.
  for (size_t t = 0; t < assignment.size(); ++t) {
    OptimizerOptions options;
    for (RuleId id : suite.targets[t].rules) {
      options.disabled_rules.insert(id);
    }
    for (int q : assignment[t]) {
      if (cancel.cancelled()) {
        return Status::Cancelled("correctness run cancelled");
      }
      if (base_unavailable.count(q) > 0) {
        ++report.skipped_unavailable;
        continue;
      }
      const TestCase& test_case = suite.queries[static_cast<size_t>(q)];
      const uint64_t salt_base =
          FaultInjector::EdgeKey(static_cast<int>(t), q, /*attempt=*/0);
      Result<OptimizeResult> restricted =
          OptimizeWithRetry(test_case.query, options, salt_base, cancel);
      if (!restricted.ok()) {
        if (IsTransient(restricted.status())) {
          ++report.skipped_unavailable;
          continue;
        }
        return restricted.status();
      }
      // Identical plans are guaranteed to produce identical results
      // (Section 2.3, footnote 1) — skip the execution.
      if (PhysicalTreeEquals(*restricted->plan, *base_plans.at(q).plan)) {
        ++report.skipped_identical_plans;
        continue;
      }
      Result<ResultSet> result =
          ExecuteWithRetry(test_case.query, *restricted->plan, salt_base,
                           cancel);
      if (!result.ok()) {
        if (IsTransient(result.status())) {
          ++report.skipped_unavailable;
          continue;
        }
        return result.status();
      }
      ++report.plans_executed;
      if (!ResultBagEquals(base_results.at(q), *result)) {
        CorrectnessViolation violation;
        violation.target = static_cast<int>(t);
        violation.query = q;
        violation.target_name =
            suite.targets[t].ToString(optimizer_->rules());
        violation.sql = test_case.sql;
        violation.base_rows = base_results.at(q).row_count();
        violation.restricted_rows = result->row_count();
        report.violations.push_back(std::move(violation));
      }
    }
  }
  plans_executed_->Increment(report.plans_executed);
  skipped_identical_->Increment(report.skipped_identical_plans);
  skipped_unavailable_->Increment(report.skipped_unavailable);
  violations_->Increment(static_cast<int64_t>(report.violations.size()));
  return report;
}

Result<bool> IsRuleRelevant(Optimizer* optimizer, const Query& query,
                            RuleId rule) {
  QTF_ASSIGN_OR_RETURN(OptimizeResult base, optimizer->Optimize(query));
  OptimizerOptions options;
  options.disabled_rules.insert(rule);
  QTF_ASSIGN_OR_RETURN(OptimizeResult restricted,
                       optimizer->Optimize(query, options));
  return !PhysicalTreeEquals(*base.plan, *restricted.plan);
}

}  // namespace qtf
