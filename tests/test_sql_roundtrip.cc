// The render→parse→bind round trip (ROADMAP item 2): for every tree the
// generator produces, Parse(GenerateSql(t)) binds to a tree whose
// TreeFingerprint equals t's — over the full rule-edge corpus, serially
// and from concurrent threads sharing one frontend. Plus the service-level
// acceptance path: an externally-written TPC-H-style query parses, binds,
// optimizes and passes a correctness run through the Sql request.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "sql/frontend.h"
#include "sql/render.h"
#include "testing/framework.h"

namespace qtf {
namespace {

/// The corpus every round-trip test runs over: k queries per singleton
/// logical-rule target, the same shape the paper's experiments use.
TestSuite GenerateCorpus(RuleTestFramework* fw, int n_rules, int k,
                         uint64_t seed) {
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 2;
  config.seed = seed;
  auto suite =
      fw->suite_generator()->Generate(fw->LogicalRuleSingletons(n_rules), k,
                                      config);
  QTF_CHECK(suite.ok()) << suite.status().ToString();
  return *std::move(suite);
}

TEST(SqlRoundTripTest, EveryCorpusQueryRoundTripsToTheSameFingerprint) {
  auto fw = RuleTestFramework::Create({}).value();
  const int n_rules = static_cast<int>(fw->LogicalRules().size());
  TestSuite suite = GenerateCorpus(fw.get(), n_rules, 2, 42);
  ASSERT_GT(suite.queries.size(), 0u);

  sql::SqlFrontendOptions options;
  options.interner = fw->interner();
  sql::SqlFrontend frontend(&fw->catalog(), options);

  for (size_t i = 0; i < suite.queries.size(); ++i) {
    const TestCase& tc = suite.queries[i];
    const std::string sql = GenerateSql(tc.query);
    EXPECT_EQ(sql, tc.sql);
    Result<Query> bound = frontend.Parse(sql);
    ASSERT_TRUE(bound.ok())
        << "query " << i << " failed to re-bind: " << bound.status().ToString()
        << "\nsql: " << sql;
    EXPECT_EQ(TreeFingerprint(*bound->root), TreeFingerprint(*tc.query.root))
        << "query " << i << " round-tripped to a different tree\nsql: " << sql;
  }
}

TEST(SqlRoundTripTest, CanonicalSqlIsAFixpoint) {
  // Rendering the re-bound tree must reproduce the original text exactly —
  // parse∘render is not just fingerprint-preserving but literally
  // idempotent on the canonical forms.
  auto fw = RuleTestFramework::Create({}).value();
  TestSuite suite = GenerateCorpus(fw.get(), 12, 2, 7);

  sql::SqlFrontendOptions options;
  options.interner = fw->interner();
  sql::SqlFrontend frontend(&fw->catalog(), options);
  for (const TestCase& tc : suite.queries) {
    Result<Query> bound = frontend.Parse(tc.sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(GenerateSql(*bound), tc.sql);
  }
}

TEST(SqlRoundTripTest, ParallelParsesMatchSerialOnes) {
  auto fw = RuleTestFramework::Create({}).value();
  TestSuite suite = GenerateCorpus(fw.get(), 16, 2, 99);

  sql::SqlFrontendOptions options;
  options.interner = fw->interner();
  sql::SqlFrontend frontend(&fw->catalog(), options);

  // Serial pass.
  std::vector<uint64_t> serial;
  for (const TestCase& tc : suite.queries) {
    Result<Query> bound = frontend.Parse(tc.sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    serial.push_back(TreeFingerprint(*bound->root));
  }

  // Parallel pass: every thread parses the whole corpus through the same
  // frontend (and shared interner); all must agree with the serial run.
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const TestCase& tc : suite.queries) {
        Result<Query> bound = frontend.Parse(tc.sql);
        parallel[t].push_back(bound.ok() ? TreeFingerprint(*bound->root) : 0);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(parallel[t], serial);
}

TEST(SqlRoundTripTest, HandWrittenTpchQueryGoesEndToEndThroughTheService) {
  // The acceptance path: a query written by a person, not the renderer —
  // unaliased columns, mixed joins, aggregation — must parse, bind,
  // optimize and come out clean from a correctness run via the Sql
  // request.
  service::RuleTestService::Config config;
  auto service = service::RuleTestService::Create(std::move(config)).value();

  service::SqlRequest request;
  request.sql =
      "SELECT n_name, COUNT(*) AS supplier_count, "
      "SUM(s_acctbal) AS total_balance "
      "FROM supplier INNER JOIN nation ON s_nationkey = n_nationkey "
      "WHERE s_acctbal > 1000.0 AND NOT EXISTS ("
      "  SELECT 1 FROM customer WHERE c_nationkey = n_nationkey "
      "  AND c_acctbal < 0.0) "
      "GROUP BY n_name";
  request.mode = service::SqlMode::kCorrectness;

  auto response = service->Sql(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->fingerprint, 0u);
  EXPECT_GT(response->operator_count, 0);
  EXPECT_FALSE(response->canonical_sql.empty());
  EXPECT_GT(response->group_count, 0);
  EXPECT_GT(response->plans_executed, 0);
  EXPECT_TRUE(response->violations.empty());

  // The canonical rendering the service reports must itself round-trip to
  // the same fingerprint (parse-only is enough for that check).
  service::SqlRequest again;
  again.sql = response->canonical_sql;
  auto rebound = service->Sql(again);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  EXPECT_EQ(rebound->fingerprint, response->fingerprint);
  EXPECT_EQ(rebound->canonical_sql, response->canonical_sql);
}

TEST(SqlRoundTripTest, ParseOnlyModeLeavesOptimizeFieldsZero) {
  service::RuleTestService::Config config;
  auto service = service::RuleTestService::Create(std::move(config)).value();
  service::SqlRequest request;
  request.sql = "SELECT r_name FROM region";
  auto response = service->Sql(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->fingerprint, 0u);
  EXPECT_EQ(response->cost, 0.0);
  EXPECT_EQ(response->group_count, 0);
  EXPECT_TRUE(response->exercised_rules.empty());
  EXPECT_EQ(response->plans_executed, 0);

  auto bad = service->Sql(service::SqlRequest{"SELECT FROM", {}, {}, {}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qtf
