// The differential acceptance suite for the rule DSL ports: a "twin"
// registry — the default registry with the 15 ported rules replaced at
// their canonical ids by DSL twins compiled from rules/dsl/*.qtr — must be
// observationally indistinguishable from the builtin registry across the
// full service surface: optimization (cost, memo shape, exercised rules),
// suite generation + compression (assignment, total cost, optimizer_calls),
// and the correctness pipeline. Serial and parallel frameworks must agree.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qgen/generators.h"
#include "ruledsl/compiler.h"
#include "rules/default_rules.h"
#include "rules/exploration_rules.h"
#include "rules/implementation_rules.h"
#include "service/service.h"
#include "sql/render.h"

namespace qtf {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

/// Compiles the shipped .qtr ports and returns them keyed by rule name.
std::map<std::string, std::unique_ptr<Rule>> CompileTwins() {
  std::map<std::string, std::unique_ptr<Rule>> twins;
  for (const char* file :
       {"join_rules.qtr", "select_rules.qtr", "union_rules.qtr"}) {
    const std::string path =
        std::string(QTF_SOURCE_DIR) + "/rules/dsl/" + file;
    auto rules = ruledsl::CompileRuleDsl(ReadFileOrDie(path));
    EXPECT_TRUE(rules.ok()) << file << ": " << rules.status().ToString();
    if (!rules.ok()) continue;
    for (std::unique_ptr<Rule>& rule : *rules) {
      twins[rule->name()] = std::move(rule);
    }
  }
  return twins;
}

/// The default registry, except every rule with a DSL twin is replaced by
/// that twin — at the same id, since ids are registration order.
std::unique_ptr<RuleRegistry> MakeTwinRegistry() {
  std::map<std::string, std::unique_ptr<Rule>> twins = CompileTwins();
  using Factory = std::unique_ptr<Rule> (*)();
  // Canonical registration order (src/rules/default_rules.cc).
  static constexpr Factory kFactories[] = {
      MakeJoinCommutativity, MakeJoinAssociativityLeft,
      MakeJoinAssociativityRight, MakeSelectPushBelowJoinLeft,
      MakeSelectPushBelowJoinRight, MakeSelectPushBelowLojLeft,
      MakeSelectMerge, MakeSelectSplit, MakeSelectPushBelowProject,
      MakeSelectPushBelowGroupBy, MakeSelectPushBelowUnionAll,
      MakeProjectMerge, MakeGroupByPushBelowJoinLeft,
      MakeGroupByPullAboveJoinLeft, MakeLojToJoin, MakeJoinLojAssocLeft,
      MakeLojLojAssocRight, MakeSemiJoinToJoinDistinct, MakeJoinToSemiJoin,
      MakeAntiToLojNullFilter, MakeUnionAllCommutativity,
      MakeUnionAllAssociativity, MakeDistinctElimination,
      MakeGroupByToDistinct, MakeDistinctToGroupBy,
      MakeGroupByOnKeyElimination, MakeSelectPushBelowDistinct,
      MakeProjectPushBelowUnionAll, MakeSemiJoinCommuteSelect,
      MakeSelectIntoJoin,
      // Implementation rules.
      MakeGetToScan, MakeSelectToFilter, MakeProjectToCompute,
      MakeJoinToNlJoin, MakeJoinToHashJoin, MakeGroupByToHashAggregate,
      MakeGroupByToStreamAggregate, MakeUnionAllToConcat,
      MakeDistinctToHashDistinct,
  };
  auto registry = std::make_unique<RuleRegistry>();
  int replaced = 0;
  for (Factory factory : kFactories) {
    std::unique_ptr<Rule> builtin = factory();
    auto twin = twins.find(builtin->name());
    if (twin != twins.end()) {
      registry->Register(std::move(twin->second));
      ++replaced;
    } else {
      registry->Register(std::move(builtin));
    }
  }
  EXPECT_EQ(replaced, 15) << "not every shipped .qtr port found its slot";
  return registry;
}

std::unique_ptr<service::RuleTestService> MakeServiceWithRegistry(
    std::unique_ptr<RuleRegistry> registry, int threads) {
  service::RuleTestService::Config config;
  config.framework.rules = std::move(registry);
  config.framework.threads = threads;
  return service::RuleTestService::Create(std::move(config)).value();
}

TEST(TwinRegistryTest, MirrorsTheDefaultRegistryIdForId) {
  std::unique_ptr<RuleRegistry> builtin = MakeDefaultRuleRegistry();
  std::unique_ptr<RuleRegistry> twin = MakeTwinRegistry();
  ASSERT_EQ(twin->size(), builtin->size());
  int dsl_rules = 0;
  for (RuleId id = 0; id < builtin->size(); ++id) {
    const Rule& b = builtin->rule(id);
    const Rule& t = twin->rule(id);
    EXPECT_EQ(t.name(), b.name()) << "id " << id;
    EXPECT_EQ(t.type(), b.type()) << b.name();
    EXPECT_EQ(t.pattern()->ToString(), b.pattern()->ToString()) << b.name();
    if (t.origin() == RuleOrigin::kDsl) ++dsl_rules;
  }
  EXPECT_EQ(dsl_rules, 15);
}

class RuleDslEndToEndDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    builtin_ = MakeServiceWithRegistry(MakeDefaultRuleRegistry(),
                                       /*threads=*/1);
    twin_ = MakeServiceWithRegistry(MakeTwinRegistry(), /*threads=*/1);
    twin_parallel_ = MakeServiceWithRegistry(MakeTwinRegistry(),
                                             /*threads=*/4);
  }

  /// Runs one request against all three services and demands identical
  /// responses — builtin vs twin (the differential oracle), and twin
  /// serial vs twin parallel (the share-don't-mutate witness).
  template <typename Request, typename Check>
  void ExpectAllAgree(const Request& request, Check check) {
    auto baseline = builtin_->Execute(service::ServiceRequest(request));
    auto serial = twin_->Execute(service::ServiceRequest(request));
    auto parallel = twin_parallel_->Execute(service::ServiceRequest(request));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    check(*baseline, *serial, "builtin vs twin");
    check(*baseline, *parallel, "builtin vs twin(parallel)");
  }

  /// The query RandomQueryGenerator grows from `seed`.
  Query SeededQuery(uint64_t seed) {
    return RandomQueryGenerator(&builtin_->framework()->catalog(), seed)
        .Generate();
  }

  /// An optimize request for SeededQuery(seed), sent as its SQL text.
  service::SqlRequest SeededOptimize(uint64_t seed) {
    service::SqlRequest request;
    request.sql = GenerateSql(SeededQuery(seed));
    request.mode = service::SqlMode::kOptimize;
    return request;
  }

  std::unique_ptr<service::RuleTestService> builtin_, twin_, twin_parallel_;
};

TEST_F(RuleDslEndToEndDiffTest, OptimizeAgreesOverSeededQueries) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ExpectAllAgree(SeededOptimize(seed), [&](const service::ServiceResponse& a,
                                             const service::ServiceResponse& b,
                                             const char* what) {
      const auto& ra = std::get<service::SqlResponse>(a);
      const auto& rb = std::get<service::SqlResponse>(b);
      EXPECT_EQ(ra.canonical_sql, rb.canonical_sql)
          << what << ", seed " << seed;
      EXPECT_EQ(ra.cost, rb.cost) << what << ", seed " << seed;
      EXPECT_EQ(ra.exercised_rules, rb.exercised_rules)
          << what << ", seed " << seed;
      EXPECT_EQ(ra.group_count, rb.group_count) << what << ", seed " << seed;
      EXPECT_EQ(ra.expr_count, rb.expr_count) << what << ", seed " << seed;
    });
  }
}

TEST_F(RuleDslEndToEndDiffTest, OptimizeAgreesWithPortedRulesDisabled) {
  // Disabling a ported rule by id must suppress the twin exactly as it
  // suppresses the builtin (JoinCommutativity=0, SelectMerge=6,
  // LojToJoin=14), and the served Plan(q, ¬R) must be the one a
  // standalone optimizer finds for the same query.
  std::unique_ptr<RuleRegistry> rules = MakeDefaultRuleRegistry();
  Optimizer standalone(rules.get());
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Query query = SeededQuery(seed);
    for (RuleId disabled : {0, 6, 14}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", disabled " +
                   std::to_string(disabled));
      service::SqlRequest request = SeededOptimize(seed);
      request.disabled_rules = {disabled};
      ExpectAllAgree(request, [&](const service::ServiceResponse& a,
                                  const service::ServiceResponse& b,
                                  const char* what) {
        const auto& ra = std::get<service::SqlResponse>(a);
        const auto& rb = std::get<service::SqlResponse>(b);
        EXPECT_EQ(ra.cost, rb.cost) << what;
        EXPECT_EQ(ra.exercised_rules, rb.exercised_rules) << what;
        EXPECT_EQ(ra.group_count, rb.group_count) << what;
        EXPECT_EQ(ra.expr_count, rb.expr_count) << what;
      });

      OptimizerOptions options;
      options.disabled_rules = {disabled};
      auto direct = standalone.Optimize(query, options);
      auto served = builtin_->Sql(request);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cost, direct->cost);
      EXPECT_EQ(served->exercised_rules,
                std::vector<RuleId>(direct->exercised_rules.begin(),
                                    direct->exercised_rules.end()));
      EXPECT_EQ(served->group_count, direct->group_count);
      EXPECT_EQ(served->expr_count, direct->expr_count);
    }
  }
}

TEST_F(RuleDslEndToEndDiffTest, CompressionAgreesOverSingletonsAndPairs) {
  service::CompressSuiteRequest singletons;
  singletons.suite.n_rules = 8;
  singletons.suite.k = 2;
  singletons.suite.seed = 5;
  service::CompressSuiteRequest pairs;
  pairs.suite.n_rules = 5;
  pairs.suite.pairs = true;
  pairs.suite.k = 1;
  pairs.suite.seed = 5;
  for (const auto& request : {singletons, pairs}) {
    ExpectAllAgree(request, [&](const service::ServiceResponse& a,
                                const service::ServiceResponse& b,
                                const char* what) {
      const auto& ra = std::get<service::CompressSuiteResponse>(a);
      const auto& rb = std::get<service::CompressSuiteResponse>(b);
      EXPECT_EQ(ra.suite_queries, rb.suite_queries) << what;
      EXPECT_EQ(ra.assignment, rb.assignment) << what;
      EXPECT_EQ(ra.total_cost, rb.total_cost) << what;
      EXPECT_EQ(ra.optimizer_calls, rb.optimizer_calls) << what;
      EXPECT_EQ(ra.degraded_targets, rb.degraded_targets) << what;
    });
  }
}

TEST_F(RuleDslEndToEndDiffTest, CorrectnessPipelineAgreesAndFindsNoBugs) {
  service::CorrectnessRequest request;
  request.suite.n_rules = 6;
  request.suite.k = 1;
  request.suite.seed = 3;
  ExpectAllAgree(request, [&](const service::ServiceResponse& a,
                              const service::ServiceResponse& b,
                              const char* what) {
    const auto& ra = std::get<service::CorrectnessResponse>(a);
    const auto& rb = std::get<service::CorrectnessResponse>(b);
    EXPECT_EQ(ra.plans_executed, rb.plans_executed) << what;
    EXPECT_EQ(ra.skipped_identical_plans, rb.skipped_identical_plans) << what;
    EXPECT_EQ(ra.skipped_unavailable, rb.skipped_unavailable) << what;
    EXPECT_EQ(ra.violations.size(), 0u) << what;
    EXPECT_EQ(rb.violations.size(), 0u) << what;
  });
}

TEST_F(RuleDslEndToEndDiffTest, SqlPipelineAgreesOnHandWrittenStatements) {
  const char* statements[] = {
      "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 25",
      "SELECT n_name, r_name FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND n_nationkey < 10",
      "SELECT DISTINCT c_nationkey FROM customer WHERE c_custkey < 100",
  };
  for (const char* sql : statements) {
    service::SqlRequest request;
    request.sql = sql;
    request.mode = service::SqlMode::kOptimize;
    ExpectAllAgree(request, [&](const service::ServiceResponse& a,
                                const service::ServiceResponse& b,
                                const char* what) {
      const auto& ra = std::get<service::SqlResponse>(a);
      const auto& rb = std::get<service::SqlResponse>(b);
      EXPECT_EQ(ra.fingerprint, rb.fingerprint) << what << ": " << sql;
      EXPECT_EQ(ra.canonical_sql, rb.canonical_sql) << what << ": " << sql;
      EXPECT_EQ(ra.cost, rb.cost) << what << ": " << sql;
      EXPECT_EQ(ra.exercised_rules, rb.exercised_rules)
          << what << ": " << sql;
      EXPECT_EQ(ra.group_count, rb.group_count) << what << ": " << sql;
      EXPECT_EQ(ra.expr_count, rb.expr_count) << what << ": " << sql;
    });
  }
}

TEST_F(RuleDslEndToEndDiffTest, OptimizerCallCountsMatchExactly) {
  // optimizer_calls is the paper's cost unit: the twins must not change
  // how many optimizations the compression pipeline issues, and the
  // invocation counters of the two serial services must track 1:1.
  service::CompressSuiteRequest request;
  request.suite.n_rules = 6;
  request.suite.k = 2;
  request.suite.seed = 11;
  auto baseline = builtin_->CompressSuite(request);
  auto twin = twin_->CompressSuite(request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(baseline->optimizer_calls, twin->optimizer_calls);
  EXPECT_EQ(builtin_->framework()->optimizer()->invocation_count(),
            twin_->framework()->optimizer()->invocation_count());
}

}  // namespace
}  // namespace qtf
