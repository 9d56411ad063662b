#include "qgen/test_suite.h"

#include <atomic>

#include "obs/trace.h"

namespace qtf {

std::string RuleTarget::ToString(const RuleRegistry& registry) const {
  std::string out;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out += "+";
    out += registry.rule(rules[i]).name();
  }
  return out;
}

std::vector<int> TestSuite::CandidatesFor(int t) const {
  std::vector<int> out;
  const RuleTarget& target = targets[static_cast<size_t>(t)];
  for (size_t q = 0; q < queries.size(); ++q) {
    bool covers = true;
    for (RuleId id : target.rules) {
      if (queries[q].rule_set.count(id) == 0) {
        covers = false;
        break;
      }
    }
    if (covers) out.push_back(static_cast<int>(q));
  }
  return out;
}

Result<TestSuite> TestSuiteGenerator::Generate(
    const std::vector<RuleTarget>& targets, int k,
    const GenerationConfig& config) {
  QTF_CHECK(k >= 1);
  obs::PhaseSpan span(optimizer_->metrics(), "qgen.suite_generate");
  TargetedQueryGenerator generator(catalog_, optimizer_);

  // Query q (the i-th of target q / k) draws from a seed that is a pure
  // function of q, so the generations are independent: they fan out
  // across the pool, and the suite is assembled below in index order,
  // identical at any thread count.
  auto generate = [&](int q) -> Result<GenerationOutcome> {
    if (config.cancel.cancelled()) {
      return Status::Cancelled("test suite generation cancelled");
    }
    GenerationConfig per_query = config;
    per_query.seed =
        (config.seed + static_cast<uint64_t>(q)) * 0x9e3779b97f4a7c15ULL +
        12345 + static_cast<uint64_t>(q % k);
    return generator.Generate(targets[static_cast<size_t>(q / k)].rules,
                              per_query);
  };
  const int n = static_cast<int>(targets.size()) * k;
  // The lowest index whose generation has failed so far. Queries above it
  // are skipped, since the suite fails there or earlier. Every query below
  // its final value runs, so the failure reported is the first in index
  // order, and a serial run stops at it.
  std::atomic<int> first_failure{n};
  std::vector<Result<GenerationOutcome>> outcomes =
      ParallelFor(pool_, n, [&](int q) -> Result<GenerationOutcome> {
        if (q > first_failure.load(std::memory_order_relaxed)) {
          return Status::Cancelled("skipped after an earlier query failed");
        }
        Result<GenerationOutcome> outcome = generate(q);
        if (!outcome.ok() || !outcome->success) {
          int seen = first_failure.load(std::memory_order_relaxed);
          while (q < seen && !first_failure.compare_exchange_weak(seen, q)) {
          }
        }
        return outcome;
      });

  TestSuite suite;
  suite.targets = targets;
  for (size_t t = 0; t < targets.size(); ++t) {
    std::vector<int> indices;
    for (int i = 0; i < k; ++i) {
      const int q = static_cast<int>(t) * k + i;
      QTF_ASSIGN_OR_RETURN(GenerationOutcome outcome,
                           std::move(outcomes[static_cast<size_t>(q)]));
      if (!outcome.success) {
        return Status::Internal(
            "could not generate query " + std::to_string(i) + " for target " +
            targets[t].ToString(optimizer_->rules()) + " within " +
            std::to_string(config.max_trials) + " trials");
      }
      TestCase test_case;
      test_case.query = outcome.query;
      test_case.sql = outcome.sql;
      test_case.rule_set = outcome.rule_set;
      test_case.cost = outcome.cost;
      test_case.trials = outcome.trials;
      suite.queries.push_back(std::move(test_case));
      indices.push_back(q);
    }
    suite.per_target.push_back(std::move(indices));
  }
  optimizer_->metrics()->counter("qtf.qgen.suites_generated")->Increment();
  return suite;
}

}  // namespace qtf
