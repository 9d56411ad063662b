#ifndef QTF_QGEN_TEST_SUITE_H_
#define QTF_QGEN_TEST_SUITE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "qgen/generation.h"

namespace qtf {

/// A test target: one rule (singleton) or two (rule pair).
struct RuleTarget {
  std::vector<RuleId> rules;

  std::string ToString(const RuleRegistry& registry) const;
};

/// One generated test query with its observed optimization facts.
struct TestCase {
  Query query;
  std::string sql;
  RuleIdSet rule_set;  // RuleSet(query)
  double cost = 0.0;   // Cost(query), optimizer-estimated
  int trials = 0;
};

/// The overall test suite TS = union of per-target suites TSi (paper
/// Section 2.3): `queries` is the pooled TS; `per_target[i]` lists the k
/// indices generated for target i (the BASELINE mapping).
struct TestSuite {
  std::vector<RuleTarget> targets;
  std::vector<TestCase> queries;
  std::vector<std::vector<int>> per_target;

  /// Query indices whose RuleSet covers target `t` (the bipartite-graph
  /// edges of Section 4.1 before costing).
  std::vector<int> CandidatesFor(int t) const;
};

/// The Test Suite Generation module of Figure 2: k queries per target via
/// the TargetedQueryGenerator.
class TestSuiteGenerator {
 public:
  TestSuiteGenerator(const Catalog* catalog, Optimizer* optimizer)
      : catalog_(catalog), optimizer_(optimizer) {}

  /// Optional worker pool the per-query generations fan out across
  /// (RuleTestFramework::Create attaches its pool when threads > 1).
  /// Borrowed; the suite is identical with or without it. Generate() must
  /// then be called from a thread that is not one of the pool's workers.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Generates k distinct queries for every target. Fails if some target
  /// cannot be covered within the configured trial count (the
  /// lowest-index such query is reported); returns kCancelled when
  /// config.cancel fires mid-suite and kDeadlineExceeded once
  /// config.deadline has passed.
  Result<TestSuite> Generate(const std::vector<RuleTarget>& targets, int k,
                             const GenerationConfig& config);

 private:
  const Catalog* catalog_;
  Optimizer* optimizer_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace qtf

#endif  // QTF_QGEN_TEST_SUITE_H_
