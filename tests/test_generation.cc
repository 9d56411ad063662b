// Query generation: RANDOM vs PATTERN coverage, trial efficiency, the
// extra-operator knob, pair composition, and rule relevance (Section 7).

#include <gtest/gtest.h>

#include <bit>

#include "logical/validate.h"
#include "qgen/generation.h"
#include "qgen/generators.h"
#include "testing/framework.h"

namespace qtf {
namespace {

class GenerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fw = RuleTestFramework::Create({});
    ASSERT_TRUE(fw.ok());
    fw_ = std::move(fw).value();
  }

  std::unique_ptr<RuleTestFramework> fw_;
};

class PerRulePatternGeneration
    : public GenerationTest,
      public ::testing::WithParamInterface<int> {};

TEST_P(PerRulePatternGeneration, PatternFindsQueryQuickly) {
  std::vector<RuleId> logical = fw_->LogicalRules();
  RuleId id = logical[static_cast<size_t>(GetParam())];
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.max_trials = 100;
  config.seed = 31 + static_cast<uint64_t>(id);
  GenerationOutcome outcome = fw_->generator()->Generate({id}, config).value();
  ASSERT_TRUE(outcome.success) << fw_->rules().rule(id).name();
  EXPECT_LE(outcome.trials, 30) << fw_->rules().rule(id).name();
  EXPECT_TRUE(outcome.rule_set.count(id) > 0);
  EXPECT_TRUE(ValidateTree(*outcome.query.root, *outcome.query.registry).ok());
  EXPECT_FALSE(outcome.sql.empty());
  EXPECT_GT(outcome.cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllThirtyRules, PerRulePatternGeneration,
                         ::testing::Range(0, 30));

TEST_F(GenerationTest, RandomEventuallyCoversEasyRules) {
  // RANDOM should find queries for broadly-applicable rules too (with more
  // trials) — the framework's baseline behaviour.
  RuleId select_merge = fw_->rules().FindByName("SelectMerge");
  GenerationConfig config;
  config.method = GenerationMethod::kRandom;
  config.max_trials = 500;
  config.seed = 7;
  GenerationOutcome outcome =
      fw_->generator()->Generate({select_merge}, config).value();
  EXPECT_TRUE(outcome.success);
}

TEST_F(GenerationTest, PatternBeatsRandomOnTrialsInAggregate) {
  // The headline claim of Section 3 at miniature scale: total trials over a
  // subset of rules.
  std::vector<RuleId> logical = fw_->LogicalRules();
  int pattern_total = 0, random_total = 0;
  for (int i = 0; i < 12; ++i) {
    GenerationConfig pattern_config;
    pattern_config.method = GenerationMethod::kPattern;
    pattern_config.seed = 100 + static_cast<uint64_t>(i);
    pattern_total +=
        fw_->generator()
            ->Generate({logical[static_cast<size_t>(i)]}, pattern_config)
            .value()
            .trials;
    GenerationConfig random_config;
    random_config.method = GenerationMethod::kRandom;
    random_config.max_trials = 3000;
    random_config.seed = 200 + static_cast<uint64_t>(i);
    random_total +=
        fw_->generator()
            ->Generate({logical[static_cast<size_t>(i)]}, random_config)
            .value()
            .trials;
  }
  EXPECT_LT(pattern_total, random_total);
}

TEST_F(GenerationTest, ExtraOpsGrowTheQuery) {
  RuleId id = fw_->rules().FindByName("JoinCommutativity");
  GenerationConfig small;
  small.method = GenerationMethod::kPattern;
  small.seed = 3;
  GenerationOutcome minimal = fw_->generator()->Generate({id}, small).value();
  ASSERT_TRUE(minimal.success);

  GenerationConfig big = small;
  big.extra_ops = 6;
  big.seed = 4;
  // extra_ops draws uniformly; try a few seeds to get a strictly larger
  // query.
  bool grew = false;
  for (uint64_t seed = 4; seed < 12 && !grew; ++seed) {
    big.seed = seed;
    GenerationOutcome grown = fw_->generator()->Generate({id}, big).value();
    if (grown.success && grown.operator_count > minimal.operator_count) {
      grew = true;
    }
  }
  EXPECT_TRUE(grew);
}

TEST_F(GenerationTest, PairGenerationViaComposition) {
  std::vector<RuleId> logical = fw_->LogicalRules();
  // JoinCommutativity + SelectPushBelowJoinLeft: a natural pair.
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.max_trials = 300;
  config.seed = 17;
  GenerationOutcome outcome =
      fw_->generator()->Generate({logical[0], logical[3]}, config).value();
  ASSERT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.rule_set.count(logical[0]) > 0);
  EXPECT_TRUE(outcome.rule_set.count(logical[3]) > 0);
}

TEST_F(GenerationTest, RelevantQueryGeneration) {
  // Section 7 variant: the returned query's plan must change when the rule
  // is turned off.
  RuleId id = fw_->rules().FindByName("SelectPushBelowJoinRight");
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.max_trials = 500;
  config.seed = 23;
  GenerationOutcome outcome =
      fw_->generator()->GenerateRelevant(id, config).value();
  ASSERT_TRUE(outcome.success);
  auto relevant =
      IsRuleRelevant(fw_->optimizer(), outcome.query, id);
  ASSERT_TRUE(relevant.ok());
  EXPECT_TRUE(*relevant);
}

TEST_F(GenerationTest, RandomGeneratorProducesValidDiverseQueries) {
  RandomQueryGenerator generator(&fw_->catalog(), 555);
  std::set<int> op_counts;
  for (int i = 0; i < 40; ++i) {
    Query query = generator.Generate();
    ASSERT_TRUE(ValidateTree(*query.root, *query.registry).ok())
        << LogicalTreeToString(*query.root, nullptr);
    op_counts.insert(CountOps(*query.root));
  }
  EXPECT_GT(op_counts.size(), 3u);  // varied sizes
}

TEST_F(GenerationTest, RandomGeneratorDeterministicPerSeed) {
  RandomQueryGenerator g1(&fw_->catalog(), 42);
  RandomQueryGenerator g2(&fw_->catalog(), 42);
  for (int i = 0; i < 5; ++i) {
    Query a = g1.Generate();
    Query b = g2.Generate();
    EXPECT_TRUE(LogicalTreeEquals(*a.root, *b.root));
  }
}

TEST_F(GenerationTest, GenerationFailureReportsTrials) {
  // An impossible target: a rule id that exists but an absurd trial budget
  // of 1 for a hard pair.
  std::vector<RuleId> logical = fw_->LogicalRules();
  GenerationConfig config;
  config.method = GenerationMethod::kRandom;
  config.max_trials = 1;
  config.seed = 1;
  GenerationOutcome outcome =
      fw_->generator()->Generate({logical[16]}, config).value();  // LojLojAssocRight
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.trials, 1);
}

// A passed deadline stops generation at once: Generate returns
// kDeadlineExceeded after at most one trial, serially and when suite
// generation fans its queries out over 4 threads.
TEST_F(GenerationTest, ExpiredDeadlineStopsGeneration) {
  auto trials = [](RuleTestFramework& fw) {
    obs::MetricsSnapshot snapshot = fw.metrics()->Snapshot();
    return snapshot.CounterValue("qtf.qgen.trials.random") +
           snapshot.CounterValue("qtf.qgen.trials.pattern");
  };
  GenerationConfig config;
  config.method = GenerationMethod::kRandom;
  config.seed = 303;
  config.deadline = Deadline::After(-1.0);
  auto generated = fw_->generator()->Generate(
      {fw_->rules().FindByName("LojLojAssocRight")}, config);
  ASSERT_FALSE(generated.ok());
  EXPECT_EQ(generated.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(trials(*fw_), 1);

  RuleTestFramework::Options options;
  options.threads = 4;
  auto parallel = RuleTestFramework::Create(std::move(options)).value();
  config.method = GenerationMethod::kPattern;
  auto suite = parallel->suite_generator()->Generate(
      parallel->LogicalRuleSingletons(8), 2, config);
  ASSERT_FALSE(suite.ok());
  EXPECT_EQ(suite.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(trials(*parallel), 1);
}

TEST_F(GenerationTest, SuiteGeneratorProducesKPerTarget) {
  auto targets = fw_->LogicalRuleSingletons(5);
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 2;
  config.seed = 60;
  auto suite = fw_->suite_generator()->Generate(targets, 4, config);
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  EXPECT_EQ(suite->per_target.size(), 5u);
  EXPECT_EQ(suite->queries.size(), 20u);
  for (size_t t = 0; t < suite->targets.size(); ++t) {
    EXPECT_EQ(suite->per_target[t].size(), 4u);
    for (int q : suite->per_target[t]) {
      for (RuleId id : suite->targets[t].rules) {
        EXPECT_TRUE(
            suite->queries[static_cast<size_t>(q)].rule_set.count(id) > 0);
      }
    }
    // CandidatesFor must at least contain the target's own queries.
    std::vector<int> candidates =
        suite->CandidatesFor(static_cast<int>(t));
    EXPECT_GE(candidates.size(), 4u);
  }
}

// Suite generation fans its per-query generations out over the framework
// pool. Each query's seed is a pure function of its index, so the suite,
// its failure message and the generation accounting are the same at any
// thread count and on any schedule.
struct SuiteRun {
  Result<TestSuite> suite = Status::Internal("not run");
  int64_t pattern_trials = 0;
  int64_t successes = 0;
  int64_t invocations = 0;
};

SuiteRun GenerateSuiteAt(int threads, const GenerationConfig& config) {
  RuleTestFramework::Options options;
  options.threads = threads;
  auto fw = RuleTestFramework::Create(std::move(options)).value();
  std::vector<RuleTarget> targets = fw->LogicalRuleSingletons(10);
  for (const RuleTarget& pair : fw->LogicalRulePairs(4)) {
    targets.push_back(pair);
  }
  SuiteRun run;
  run.suite = fw->suite_generator()->Generate(targets, 2, config);
  obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
  run.pattern_trials = snapshot.CounterValue("qtf.qgen.trials.pattern");
  run.successes = snapshot.CounterValue("qtf.qgen.successes");
  run.invocations = snapshot.CounterValue("qtf.optimizer.invocations");
  return run;
}

GenerationConfig ParallelSuiteConfig() {
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 4;
  config.seed = 2026;
  return config;
}

void ExpectSameSuite(const SuiteRun& a, const SuiteRun& b) {
  ASSERT_TRUE(a.suite.ok()) << a.suite.status().ToString();
  ASSERT_TRUE(b.suite.ok()) << b.suite.status().ToString();
  ASSERT_EQ(a.suite->queries.size(), b.suite->queries.size());
  for (size_t q = 0; q < a.suite->queries.size(); ++q) {
    const TestCase& x = a.suite->queries[q];
    const TestCase& y = b.suite->queries[q];
    EXPECT_EQ(x.sql, y.sql) << "query " << q;
    EXPECT_EQ(x.rule_set, y.rule_set) << "query " << q;
    EXPECT_EQ(std::bit_cast<uint64_t>(x.cost), std::bit_cast<uint64_t>(y.cost))
        << "query " << q;
    EXPECT_EQ(x.trials, y.trials) << "query " << q;
  }
  EXPECT_EQ(a.suite->per_target, b.suite->per_target);
  EXPECT_EQ(a.pattern_trials, b.pattern_trials);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.invocations, b.invocations);
}

TEST(ParallelSuiteGenerationTest, MatchesSerialAtAnyThreadCount) {
  const SuiteRun serial = GenerateSuiteAt(1, ParallelSuiteConfig());
  const SuiteRun parallel = GenerateSuiteAt(4, ParallelSuiteConfig());
  const SuiteRun parallel2 = GenerateSuiteAt(4, ParallelSuiteConfig());
  ExpectSameSuite(serial, parallel);
  ExpectSameSuite(parallel, parallel2);
  EXPECT_EQ(serial.successes,
            static_cast<int64_t>(serial.suite->queries.size()));
}

TEST(ParallelSuiteGenerationTest, ReportsTheSameFailureAtAnyThreadCount) {
  // One trial per query leaves some targets uncovered; the lowest-index
  // one is reported whichever generation finishes first.
  GenerationConfig config = ParallelSuiteConfig();
  config.max_trials = 1;
  const SuiteRun serial = GenerateSuiteAt(1, config);
  const SuiteRun parallel = GenerateSuiteAt(4, config);
  ASSERT_FALSE(serial.suite.ok());
  EXPECT_EQ(serial.suite.status().code(), StatusCode::kInternal);
  EXPECT_EQ(serial.suite.status().ToString(),
            parallel.suite.status().ToString());
  // The serial run stops at that query: one trial for it and for each
  // success before it, none after.
  EXPECT_EQ(serial.pattern_trials, serial.successes + 1);
}

TEST(ParallelSuiteGenerationTest, CancelledTokenCancelsAtAnyThreadCount) {
  CancellationSource source;
  source.Cancel();
  GenerationConfig config = ParallelSuiteConfig();
  config.cancel = source.token();
  for (int threads : {1, 4}) {
    const SuiteRun run = GenerateSuiteAt(threads, config);
    ASSERT_FALSE(run.suite.ok()) << "threads=" << threads;
    EXPECT_EQ(run.suite.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
    EXPECT_EQ(run.pattern_trials, 0) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace qtf
