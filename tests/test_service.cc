// RuleTestService + ServiceServer: option validation, admission shedding,
// deadline/cancellation plumbing, and the serving acceptance
// criteria — a resident server answering concurrent connections with
// responses byte-identical to in-process calls, and surviving garbage
// frames from hostile peers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "qgen/generators.h"
#include "service/service.h"
#include "sql/render.h"

namespace qtf {
namespace {

std::unique_ptr<service::RuleTestService> MakeService(
    size_t max_queue_depth = 128, int threads = 1) {
  service::RuleTestService::Config config;
  config.max_queue_depth = max_queue_depth;
  config.framework.threads = threads;
  return service::RuleTestService::Create(std::move(config)).value();
}

/// An optimize request for the query RandomQueryGenerator grows from
/// `seed`, sent as its SQL text.
service::SqlRequest SeededOptimize(service::RuleTestService& service,
                                   uint64_t seed,
                                   RandomGeneratorConfig config = {}) {
  service::SqlRequest request;
  request.sql = GenerateSql(
      RandomQueryGenerator(&service.framework()->catalog(), seed, config)
          .Generate());
  request.mode = service::SqlMode::kOptimize;
  return request;
}

TEST(ServiceOptionsTest, CreateRejectsInvalidOptionsNamingTheField) {
  {
    service::RuleTestService::Config config;
    config.framework.threads = 0;
    auto result = service::RuleTestService::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("threads"), std::string::npos)
        << result.status().ToString();
  }
  {
    service::RuleTestService::Config config;
    config.framework.plan_cache_capacity = 0;
    auto result = service::RuleTestService::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("plan_cache_capacity"),
              std::string::npos);
  }
  {
    service::RuleTestService::Config config;
    config.max_queue_depth = 0;
    auto result = service::RuleTestService::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("max_queue_depth"),
              std::string::npos);
  }
  {
    service::RuleTestService::Config config;
    config.default_deadline_seconds = -1.0;
    auto result = service::RuleTestService::Create(std::move(config));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("default_deadline_seconds"),
              std::string::npos);
  }
}

TEST(ServiceTest, GenerateAndOptimizeWork) {
  auto service = MakeService();
  service::GenerateRequest generate;
  generate.targets = {0};
  generate.seed = 3;
  auto generated = service->Generate(generate);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_TRUE(generated->success);
  EXPECT_FALSE(generated->sql.empty());
  EXPECT_GT(generated->operator_count, 0);

  auto optimized = service->Sql(SeededOptimize(*service, 5));
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_FALSE(optimized->canonical_sql.empty());
  EXPECT_GT(optimized->group_count, 0);
  EXPECT_GT(service->metrics()->counter("qtf.service.requests")->Value(), 0);
}

TEST(ServiceTest, RequestValidationNamesTheField) {
  auto service = MakeService();
  service::GenerateRequest bad_target;
  bad_target.targets = {9999};
  auto result = service->Generate(bad_target);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("targets"), std::string::npos);

  // disabled_rules: ids must be in the registry, and only kOptimize
  // searches with rules disabled.
  service::SqlRequest out_of_range = SeededOptimize(*service, 5);
  out_of_range.disabled_rules = {service->framework()->rules().size()};
  auto range_result = service->Sql(out_of_range);
  ASSERT_FALSE(range_result.ok());
  EXPECT_EQ(range_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(range_result.status().message().find("disabled_rules"),
            std::string::npos);
  for (service::SqlMode mode :
       {service::SqlMode::kParseOnly, service::SqlMode::kCorrectness}) {
    service::SqlRequest wrong_mode = SeededOptimize(*service, 5);
    wrong_mode.mode = mode;
    wrong_mode.disabled_rules = {0};
    auto mode_result = service->Sql(wrong_mode);
    ASSERT_FALSE(mode_result.ok()) << service::SqlModeToString(mode);
    EXPECT_EQ(mode_result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mode_result.status().message().find("disabled_rules"),
              std::string::npos);
  }
}

TEST(ServiceTest, SqlOptimizeSearchStopsAtTheRequestDeadline) {
  // Injected latency makes every rule application sleep 5 ms, so the
  // search's first deadline check (after 64 exploration steps) comes long
  // after a 0.1 s request deadline: the optimizer must truncate
  // exploration and still return its best plan.
  service::RuleTestService::Config config;
  config.framework.fault_injector.seed = 1;
  config.framework.fault_injector.latency_probability = 1.0;
  config.framework.fault_injector.latency_micros = 5000.0;
  auto service = service::RuleTestService::Create(std::move(config)).value();
  RandomGeneratorConfig six_to_nine;
  six_to_nine.min_ops = 6;
  six_to_nine.max_ops = 9;
  service::SqlRequest request = SeededOptimize(*service, 3, six_to_nine);
  request.options.deadline_seconds = 0.1;
  auto response = service->Sql(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->budget_exhausted);
  EXPECT_GT(response->group_count, 0);
}

TEST(ServiceTest, GenerateStopsAtTheRequestDeadline) {
  // RANDOM generation for LojLojAssocRight at this seed needs 735 trials
  // (about half a second in an optimized build). The 50 ms request
  // deadline holds across them: generation stops when it passes and the
  // request fails, rather than every trial getting a fresh deadline.
  auto service = MakeService();
  service::GenerateRequest request;
  request.targets = {
      service->framework()->rules().FindByName("LojLojAssocRight")};
  request.method = GenerationMethod::kRandom;
  request.max_trials = 2000;
  request.seed = 303;
  request.options.deadline_seconds = 0.05;
  auto response = service->Generate(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  // It stopped mid-generation, not at the phase check before it.
  EXPECT_GT(service->metrics()->Snapshot().CounterValue(
                "qtf.qgen.trials.random"),
            0);
}

TEST(ServiceTest, PreCancelledRequestReturnsCancelled) {
  auto service = MakeService();
  CancellationSource source;
  source.Cancel();
  service::CorrectnessRequest request;
  request.suite.n_rules = 2;
  request.suite.k = 1;
  request.options.cancel = source.token();
  auto response = service->RunCorrectness(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

TEST(ServiceTest, MidRequestCancellationStopsTheRequest) {
  auto service = MakeService();
  CancellationSource source;
  service::CorrectnessRequest request;
  // Large enough that cancellation lands mid-flight on any machine.
  request.suite.n_rules = 8;
  request.suite.pairs = true;
  request.suite.k = 3;
  request.options.cancel = source.token();

  std::atomic<bool> done{false};
  Result<service::CorrectnessResponse> response =
      Status::Internal("not run");
  std::thread worker([&] {
    response = service->RunCorrectness(request);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  source.Cancel();
  worker.join();
  ASSERT_TRUE(done.load());
  // Either the request finished before the cancel landed (small machines
  // are fast) or it observed the token; it must never hang or crash.
  if (!response.ok()) {
    EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
        << response.status().ToString();
  }
}

TEST(ServiceTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  auto service = MakeService();
  service::CorrectnessRequest request;
  request.suite.n_rules = 2;
  request.suite.k = 1;
  request.options.deadline_seconds = 1e-9;
  // The deadline is minutes shorter than suite generation + compression +
  // execution; some phase boundary must observe it.
  auto response = service->RunCorrectness(request);
  if (!response.ok()) {
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
        << response.status().ToString();
  }
}

// A GROUP BY over the UNION ALL of part LEFT JOIN supplier and a padded
// part branch. Its optimized plan pushes a select below the union onto
// columns of the wrong types, which the executor refuses to run.
constexpr char kMistypedUnionSql[] =
    "SELECT c21, COUNT(*) AS c27 FROM (SELECT * FROM (SELECT * FROM "
    "(SELECT c0 AS c18, c1 AS c19, c2 AS c20, c3 AS c21, c4 AS c22, c5 "
    "AS c23, c6 AS c24, c7 AS c25, c8 AS c26 FROM (SELECT * FROM "
    "(SELECT * FROM (SELECT p_partkey AS c0, p_name AS c1, p_brand AS "
    "c2, p_size AS c3, p_retailprice AS c4 FROM part) d8 LEFT OUTER "
    "JOIN (SELECT s_suppkey AS c5, s_name AS c6, s_nationkey AS c7, "
    "s_acctbal AS c8 FROM supplier) d9 ON (c0 = c5)) d7 WHERE (c7 <> "
    "1)) d6 UNION ALL SELECT c9 AS c18, c10 AS c19, c11 AS c20, c12 AS "
    "c21, c13 AS c22, c14 AS c23, c15 AS c24, c16 AS c25, c17 AS c26 "
    "FROM (SELECT c9 AS c9, c10 AS c10, c11 AS c11, c12 AS c12, c13 AS "
    "c13, 8 AS c14, 'filler' AS c15, 3 AS c16, 0.0 AS c17 FROM (SELECT "
    "* FROM (SELECT p_partkey AS c9, p_name AS c10, p_brand AS c11, "
    "p_size AS c12, p_retailprice AS c13 FROM part) d5 WHERE (c9 = "
    "c12)) d4) d3) d2 WHERE ((c22 < 9597.5770696649688) AND (c24 <= "
    "c20))) d1 WHERE (c22 <> 6710.9213955762052)) d0 GROUP BY c21";

TEST(ServiceTest, UnexecutablePlanFailsTheRequestNotTheService) {
  auto service = MakeService();
  service::SqlRequest request;
  request.sql = kMistypedUnionSql;
  request.mode = service::SqlMode::kCorrectness;
  auto failed = service->Sql(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find(
                "UNION ALL branches must agree on column types"),
            std::string::npos)
      << failed.status().ToString();

  // The same service answers the next request.
  auto next = service->Sql(SeededOptimize(*service, 5));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_GT(next->group_count, 0);
}

TEST(ServiceTest, ShedsWithResourceExhaustedWhenQueueIsFull) {
  auto service = MakeService(/*max_queue_depth=*/2);
  // Occupy every admission slot, as if two long requests were in flight.
  auto slot1 = service->admission()->TryEnter();
  auto slot2 = service->admission()->TryEnter();
  ASSERT_TRUE(slot1);
  ASSERT_TRUE(slot2);

  const service::SqlRequest request = SeededOptimize(*service, 1);
  auto shed = service->Sql(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(service->metrics()->counter("qtf.service.sheds")->Value(), 0);

  // Metrics bypass admission: observability survives saturation.
  auto metrics = service->Metrics(service::MetricsRequest{});
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->body.find("qtf.service.sheds"), std::string::npos);

  // Slots released -> requests flow again.
  slot1.Release();
  slot2.Release();
  auto ok_again = service->Sql(request);
  EXPECT_TRUE(ok_again.ok()) << ok_again.status().ToString();
}

// --- Runtime rule loading -------------------------------------------------

// A SelectSplit-shaped probe, distinct in name from every builtin so its
// registration and exercise are attributable to the LoadRules path.
constexpr char kProbeRule[] =
    "rule ProbeSelectSplit {\n"
    "  match s: select($X)\n"
    "  when min_conjuncts(pred(s), 2)\n"
    "  rewrite select(select($X, tail(pred(s))), head(pred(s)))\n"
    "}\n";

TEST(ServiceLoadRulesTest, LoadsRegistersAndExercisesARuntimeRule) {
  auto service = MakeService();
  const int before = service->framework()->rules().size();

  service::LoadRulesRequest load;
  load.text = kProbeRule;
  auto loaded = service->LoadRules(load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->compiled, 1);
  ASSERT_EQ(loaded->ids.size(), 1u);
  ASSERT_EQ(loaded->names.size(), 1u);
  EXPECT_EQ(loaded->names[0], "ProbeSelectSplit");
  // Ids are registration order: the runtime rule lands after the builtins.
  EXPECT_EQ(loaded->ids[0], before);
  EXPECT_GT(service->metrics()->counter("qtf.dsl.loaded")->Value(), 0);

  // ListRules reports it with origin=dsl next to the builtins.
  auto listed = service->ListRules(service::ListRulesRequest{});
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->rules.size(), static_cast<size_t>(before) + 1);
  const service::RuleInfo& info = listed->rules.back();
  EXPECT_EQ(info.id, loaded->ids[0]);
  EXPECT_EQ(info.name, "ProbeSelectSplit");
  EXPECT_EQ(info.type, 0);  // exploration
  EXPECT_EQ(info.origin, 1);  // dsl
  EXPECT_EQ(info.pattern, "Select(Any)");
  EXPECT_EQ(listed->rules.front().origin, 0);  // builtins unchanged

  // The loaded rule is live: a multi-conjunct select exercises it, and the
  // full correctness pipeline over that query finds no violations.
  service::SqlRequest sql;
  sql.sql = "SELECT n_name FROM nation WHERE n_nationkey < 10 AND "
            "n_regionkey < 3";
  sql.mode = service::SqlMode::kOptimize;
  auto optimized = service->Sql(sql);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_NE(std::find(optimized->exercised_rules.begin(),
                      optimized->exercised_rules.end(), loaded->ids[0]),
            optimized->exercised_rules.end())
      << "runtime-loaded rule was not exercised";

  sql.mode = service::SqlMode::kCorrectness;
  auto correctness = service->Sql(sql);
  ASSERT_TRUE(correctness.ok()) << correctness.status().ToString();
  EXPECT_GT(correctness->plans_executed, 0);
  EXPECT_TRUE(correctness->violations.empty());
}

TEST(ServiceLoadRulesTest, RejectsCollisionsMalformedAndEmptySpecs) {
  auto service = MakeService();
  const int before = service->framework()->rules().size();

  {
    // Name collision with a resident builtin: all-or-nothing kAlreadyExists.
    service::LoadRulesRequest load;
    load.text = "rule JoinCommutativity { match t: join(inner, $A, $B) "
                "rewrite join(inner, $B, $A, pred(t)) }";
    auto result = service->LoadRules(load);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
    EXPECT_NE(result.status().message().find("JoinCommutativity"),
              std::string::npos);
  }
  {
    // Malformed spec: kInvalidArgument carrying its line:col position.
    service::LoadRulesRequest load;
    load.text = "rule Broken {\n  match s: select($X)\n  rewrite $Y\n}";
    auto result = service->LoadRules(load);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("3:"), std::string::npos)
        << result.status().ToString();
  }
  {
    service::LoadRulesRequest empty;
    auto result = service->LoadRules(empty);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // dry_run compiles and reports without registering.
    service::LoadRulesRequest load;
    load.text = kProbeRule;
    load.dry_run = true;
    auto result = service->LoadRules(load);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->compiled, 1);
    EXPECT_TRUE(result->ids.empty());
    ASSERT_EQ(result->names.size(), 1u);
    EXPECT_EQ(result->names[0], "ProbeSelectSplit");
  }
  // None of the above grew the registry.
  EXPECT_EQ(service->framework()->rules().size(), before);
}

TEST(ServiceLoadRulesTest, LoadRulesIsSafeUnderConcurrentTraffic) {
  // LoadRules takes the registry lock exclusively while Sql requests hold
  // it shared; interleaving them must neither crash nor corrupt responses.
  auto service = MakeService();
  std::vector<service::SqlRequest> requests;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 6; ++i) {
      requests.push_back(
          SeededOptimize(*service, static_cast<uint64_t>(t * 100 + i + 1)));
    }
  }
  std::atomic<int> failures{0};
  std::thread loader([&] {
    for (int i = 0; i < 8; ++i) {
      service::LoadRulesRequest load;
      load.text = "rule Probe" + std::to_string(i) +
                  " { match s: select($X) when min_conjuncts(pred(s), 2) "
                  "rewrite select(select($X, tail(pred(s))), "
                  "head(pred(s))) }";
      if (!service->LoadRules(load).ok()) failures.fetch_add(1);
    }
  });
  std::vector<std::thread> traffic;
  for (int t = 0; t < 3; ++t) {
    traffic.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        if (!service->Sql(requests[t * 6 + i]).ok()) failures.fetch_add(1);
      }
    });
  }
  loader.join();
  for (std::thread& t : traffic) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service->framework()->rules().FindByName("Probe7") >= 0, true);
}

// --- Statement cache --------------------------------------------------------

// The hand-written statement the CI serving job sends: unaliased columns,
// so it is not canonical SQL and its canonical text differs from it.
constexpr char kNationRegionSql[] =
    "SELECT n_name, COUNT(*) AS cnt FROM nation INNER JOIN region ON "
    "n_regionkey = r_regionkey GROUP BY n_name";

int64_t CounterValue(service::RuleTestService& service, const char* name) {
  return service.metrics()->counter(name)->Value();
}

/// The wire encoding of the service's answer, or the error it returned.
std::string Answer(service::RuleTestService& service,
                   const service::SqlRequest& request) {
  auto response = service.Sql(request);
  return response.ok() ? net::EncodeSqlResponse(*response)
                       : "error: " + response.status().ToString();
}

/// The answer of a service that has not seen the statement before, so it
/// parses, binds and renders it whatever its statement cache does.
std::string FreshAnswer(const service::SqlRequest& request) {
  auto fresh = MakeService();
  std::string answer = Answer(*fresh, request);
  EXPECT_EQ(answer.rfind("error: ", 0), std::string::npos) << answer;
  return answer;
}

service::SqlRequest SqlIn(std::string sql, service::SqlMode mode,
                          std::vector<RuleId> disabled_rules = {}) {
  service::SqlRequest request;
  request.sql = std::move(sql);
  request.mode = mode;
  request.disabled_rules = std::move(disabled_rules);
  return request;
}

TEST(ServiceStatementCacheTest, RepeatedStatementGetsIdenticalBytes) {
  const std::vector<service::SqlRequest> requests = {
      SqlIn(kNationRegionSql, service::SqlMode::kParseOnly),
      SqlIn(kNationRegionSql, service::SqlMode::kOptimize),
      SqlIn(kNationRegionSql, service::SqlMode::kOptimize, {0, 6, 14}),
      SqlIn(kNationRegionSql, service::SqlMode::kCorrectness),
  };
  auto service = MakeService();
  const int64_t parsed = CounterValue(*service, "qtf.sql.parsed");
  const int64_t hits =
      CounterValue(*service, "qtf.sql.statement_cache.hits");
  const int64_t misses =
      CounterValue(*service, "qtf.sql.statement_cache.misses");
  std::vector<std::string> first;
  for (const service::SqlRequest& request : requests) {
    first.push_back(Answer(*service, request));
    ASSERT_EQ(first.back().rfind("error: ", 0), std::string::npos)
        << first.back();
  }
  // One text: the first request binds it, the other three reuse it.
  EXPECT_EQ(CounterValue(*service, "qtf.sql.parsed"), parsed + 1);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.misses"),
            misses + 1);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"),
            hits + 3);

  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(Answer(*service, requests[i]), first[i]) << "request " << i;
    EXPECT_EQ(FreshAnswer(requests[i]), first[i]) << "request " << i;
  }
  EXPECT_EQ(CounterValue(*service, "qtf.sql.parsed"), parsed + 1);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.misses"),
            misses + 1);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"),
            hits + 7);
}

TEST(ServiceStatementCacheTest, ParseAndBindErrorsRepeatAndAreNeverCached) {
  auto service = MakeService();
  const struct {
    const char* sql;
    const char* counter;
  } cases[] = {
      {"SELECT r_name FROM region WHERE", "qtf.sql.parse_errors"},
      {"SELECT no_such_column FROM region", "qtf.sql.bind_errors"},
  };
  for (const auto& c : cases) {
    const int64_t errors = CounterValue(*service, c.counter);
    const int64_t hits =
        CounterValue(*service, "qtf.sql.statement_cache.hits");
    const int64_t misses =
        CounterValue(*service, "qtf.sql.statement_cache.misses");
    const service::SqlRequest request =
        SqlIn(c.sql, service::SqlMode::kOptimize);
    auto first = service->Sql(request);
    ASSERT_FALSE(first.ok()) << c.sql;
    EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
    for (int i = 0; i < 2; ++i) {
      auto again = service->Sql(request);
      ASSERT_FALSE(again.ok()) << c.sql;
      EXPECT_EQ(again.status().ToString(), first.status().ToString());
    }
    // Every attempt parsed afresh: three misses, three errors, no hit.
    EXPECT_EQ(CounterValue(*service, c.counter), errors + 3) << c.sql;
    EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.misses"),
              misses + 3);
    EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"), hits);
  }
}

TEST(ServiceStatementCacheTest, StatementOverTheByteBoundIsAnsweredNotCached) {
  auto service = MakeService();
  const std::string expected =
      Answer(*service,
             SqlIn("SELECT r_name FROM region", service::SqlMode::kOptimize));
  ASSERT_EQ(expected.rfind("error: ", 0), std::string::npos) << expected;
  // Comments do not reach the bound tree, so a padded statement answers
  // exactly as the plain one.
  const std::string large =
      "SELECT r_name FROM region /* " +
      std::string(service::RuleTestService::kStatementCacheBytes, 'x') +
      " */";
  const std::string small = "SELECT r_name FROM region /* padded */";
  const int64_t parsed = CounterValue(*service, "qtf.sql.parsed");
  const int64_t hits = CounterValue(*service, "qtf.sql.statement_cache.hits");
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Answer(*service, SqlIn(large, service::SqlMode::kOptimize)),
              expected);
  }
  EXPECT_EQ(CounterValue(*service, "qtf.sql.parsed"), parsed + 2);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"), hits);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Answer(*service, SqlIn(small, service::SqlMode::kOptimize)),
              expected);
  }
  EXPECT_EQ(CounterValue(*service, "qtf.sql.parsed"), parsed + 3);
  EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"),
            hits + 1);
}

TEST(ServiceStatementCacheTest, CacheEmptiesOncePastTheEntryBound) {
  service::RuleTestService::Config config;
  config.framework.plan_cache_capacity = 2;
  auto service = service::RuleTestService::Create(std::move(config)).value();
  std::vector<service::SqlRequest> statements;
  std::vector<std::string> expected;
  for (uint64_t seed : {21, 22, 23}) {
    statements.push_back(SeededOptimize(*service, seed));
    expected.push_back(FreshAnswer(statements.back()));
  }
  const int64_t hits = CounterValue(*service, "qtf.sql.statement_cache.hits");
  const int64_t misses =
      CounterValue(*service, "qtf.sql.statement_cache.misses");
  // Two entries fit. Inserting the third text (2) empties the cache, so 0
  // misses again, and inserting 1 empties it once more.
  const struct {
    int statement;
    bool hit;
  } steps[] = {{0, false}, {1, false}, {0, true}, {2, false},
               {0, false}, {2, true},  {1, false}, {1, true}};
  int64_t expected_hits = hits;
  int64_t expected_misses = misses;
  for (const auto& step : steps) {
    const size_t statement = static_cast<size_t>(step.statement);
    EXPECT_EQ(Answer(*service, statements[statement]), expected[statement])
        << "statement " << step.statement;
    (step.hit ? expected_hits : expected_misses) += 1;
    EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.hits"),
              expected_hits)
        << "statement " << step.statement;
    EXPECT_EQ(CounterValue(*service, "qtf.sql.statement_cache.misses"),
              expected_misses)
        << "statement " << step.statement;
  }
}

TEST(ServiceStatementCacheTest, ConcurrentRequestsGetIdenticalBytes) {
  auto service = MakeService(/*max_queue_depth=*/128, /*threads=*/2);
  std::vector<service::SqlRequest> requests;
  for (uint64_t seed : {31, 32, 33}) {
    service::SqlRequest request = SeededOptimize(*service, seed);
    requests.push_back(request);
    request.mode = service::SqlMode::kParseOnly;
    requests.push_back(request);
  }
  requests.push_back(SqlIn(kNationRegionSql, service::SqlMode::kOptimize));
  std::vector<std::string> expected;
  for (const service::SqlRequest& request : requests) {
    expected.push_back(FreshAnswer(request));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          const size_t r = (i + static_cast<size_t>(t)) % requests.size();
          if (Answer(*service, requests[r]) != expected[r]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Four distinct texts, each bound at most once per racing thread.
  EXPECT_LE(CounterValue(*service, "qtf.sql.statement_cache.misses"),
            4 * kThreads);
  EXPECT_GE(CounterValue(*service, "qtf.sql.statement_cache.hits"),
            static_cast<int64_t>(requests.size()) * kThreads * kRounds -
                4 * kThreads);
}

// --- Serving over loopback ------------------------------------------------

TEST(ServiceServerTest, ConcurrentConnectionsGetByteIdenticalResponses) {
  auto service = MakeService();
  net::ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = 4;
  auto server = net::ServiceServer::Start(service.get(), config).value();

  // In-process ground truth for the same seeds. The framework is
  // deterministic at any thread count and cache temperature, so a fresh
  // local service must produce the exact bytes the resident server sends.
  auto local = MakeService();

  constexpr int kConnections = 8;
  std::vector<service::SqlRequest> requests;
  for (int i = 0; i < kConnections; ++i) {
    requests.push_back(
        SeededOptimize(*service, 100 + static_cast<uint64_t>(i)));
  }
  std::vector<std::string> remote_payload(kConnections);
  std::vector<std::string> local_payload(kConnections);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kConnections; ++i) {
    clients.emplace_back([&, i] {
      auto client_or = client::ServiceClient::Connect("127.0.0.1",
                                                      server->port());
      if (!client_or.ok()) {
        ++failures;
        return;
      }
      auto frame = client_or.value()->CallRaw(
          net::MessageType::kSqlRequest, net::EncodeSqlRequest(requests[i]));
      if (!frame.ok() || frame->type != net::MessageType::kSqlResponse) {
        ++failures;
        return;
      }
      remote_payload[i] = frame->payload;
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  for (int i = 0; i < kConnections; ++i) {
    auto response = local->Sql(requests[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    local_payload[i] = net::EncodeSqlResponse(*response);
    EXPECT_EQ(remote_payload[i], local_payload[i])
        << "response for seed " << 100 + i << " differs between transports";
  }

  EXPECT_GE(service->metrics()
                ->counter("qtf.service.sessions_total")
                ->Value(),
            kConnections);
  server->Shutdown();
}

TEST(ServiceServerTest, SurvivesGarbageFramesAndKeepsServing) {
  auto service = MakeService();
  net::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  auto server = net::ServiceServer::Start(service.get(), config).value();

  std::mt19937_64 rng(777);
  for (int round = 0; round < 20; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

    std::string junk(64 + rng() % 512, '\0');
    for (char& c : junk) c = static_cast<char>(rng() & 0xff);
    if (round % 3 == 0) {
      // Sometimes lead with a valid frame whose payload is garbage: the
      // server must answer kError and only then hit the garbage.
      junk = net::EncodeFrame(net::MessageType::kGenerateRequest, 1,
                              junk.substr(0, 32)) +
             junk;
    }
    (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    ::close(fd);
  }

  // The server counted bad frames instead of dying...
  // (bad_frames may lag the last close slightly; poll briefly.)
  for (int i = 0; i < 100; ++i) {
    if (service->metrics()->counter("qtf.service.bad_frames")->Value() > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(service->metrics()->counter("qtf.service.bad_frames")->Value(),
            0);

  // ...and still serves well-formed clients.
  auto client =
      client::ServiceClient::Connect("127.0.0.1", server->port()).value();
  auto response = client->Sql(SeededOptimize(*service, 21));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->group_count, 0);
  server->Shutdown();
}

TEST(ServiceServerTest, MalformedPayloadGetsErrorFrameAndConnectionSurvives) {
  auto service = MakeService();
  net::ServerConfig config;
  config.port = 0;
  auto server = net::ServiceServer::Start(service.get(), config).value();
  auto client =
      client::ServiceClient::Connect("127.0.0.1", server->port()).value();

  // Truncated generate payload in a valid frame: kInvalidArgument back.
  auto error_frame =
      client->CallRaw(net::MessageType::kGenerateRequest, "abc");
  ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
  ASSERT_EQ(error_frame->type, net::MessageType::kError);
  Status carried;
  ASSERT_TRUE(net::DecodeError(error_frame->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);

  // Same connection keeps working afterwards.
  auto response = client->Sql(SeededOptimize(*service, 2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  server->Shutdown();
}

TEST(ServiceServerTest, ServerShedsOverWireWhenGateIsFull) {
  auto service = MakeService(/*max_queue_depth=*/1);
  net::ServerConfig config;
  config.port = 0;
  auto server = net::ServiceServer::Start(service.get(), config).value();
  auto client =
      client::ServiceClient::Connect("127.0.0.1", server->port()).value();

  // Hold the only admission slot so the next wire request must shed.
  auto slot = service->admission()->TryEnter();
  ASSERT_TRUE(slot);
  const service::SqlRequest request = SeededOptimize(*service, 1);
  auto shed = client->Sql(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // Metrics bypass the gate even over the wire.
  auto metrics = client->Metrics(service::MetricsRequest{});
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  slot.Release();
  auto ok_again = client->Sql(request);
  ASSERT_TRUE(ok_again.ok()) << ok_again.status().ToString();
  server->Shutdown();
}

}  // namespace
}  // namespace qtf
