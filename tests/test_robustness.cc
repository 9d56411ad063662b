// Chaos suite for the robustness subsystem (docs/robustness.md): budgeted,
// cancellable optimization under deterministic fault injection.
//
// The properties asserted here are the acceptance criteria of the
// subsystem:
//   * a fault-seed sweep never crashes and never leaks an injected error
//     as anything but a propagated Status;
//   * at a fixed nonzero seed, serial and parallel runs produce identical
//     outputs and identical optimizer_calls();
//   * budget-exhausted runs still yield a valid (full) compression;
//   * cancellation from another thread ends an Optimize promptly with
//     consistent metrics.
//
// CI runs this binary across a QTF_FAULT_SEED matrix (and under TSan);
// set QTF_METRICS_JSON to dump the final chaos run's metrics snapshot.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

#include "compress/compression.h"
#include "qgen/generation.h"
#include "testing/framework.h"

namespace qtf {
namespace {

// Seeds for the chaos sweep: the QTF_FAULT_SEED environment variable (one
// seed, CI matrix style) or a small built-in sweep. Seed 0 would disable
// injection entirely, so it falls back to the default sweep.
std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("QTF_FAULT_SEED")) {
    uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) return {seed};
  }
  return {1, 2, 3};
}

std::unique_ptr<RuleTestFramework> MakeChaosFramework(uint64_t seed,
                                                      int threads,
                                                      double fault_p) {
  RuleTestFramework::Options options;
  options.threads = threads;
  options.fault_injector.seed = seed;
  options.fault_injector.fault_probability = fault_p;
  options.fault_injector.latency_probability = 0.05;
  options.fault_injector.latency_micros = 20.0;
  return RuleTestFramework::Create(std::move(options)).value();
}

// Generates an n-target suite with injection gated off, so every chaos
// phase starts from the same clean, deterministic suite.
Result<TestSuite> MakeCleanSuite(RuleTestFramework* fw, int n_targets,
                                 int k) {
  if (fw->fault_injector() != nullptr) {
    fw->fault_injector()->set_enabled(false);
  }
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 1;
  config.seed = 2026;
  auto suite = fw->suite_generator()->Generate(
      fw->LogicalRuleSingletons(n_targets), k, config);
  if (fw->fault_injector() != nullptr) {
    fw->fault_injector()->set_enabled(true);
  }
  return suite;
}

// A full assignment: one entry per target, exactly k distinct in-range
// queries each.
void ExpectValidAssignment(const CompressionSolution& solution,
                           const TestSuite& suite, int k) {
  ASSERT_EQ(solution.assignment.size(), suite.targets.size());
  for (const std::vector<int>& queries : solution.assignment) {
    EXPECT_EQ(queries.size(), static_cast<size_t>(k));
    std::set<int> distinct(queries.begin(), queries.end());
    EXPECT_EQ(distinct.size(), queries.size());
    for (int q : queries) {
      EXPECT_GE(q, 0);
      EXPECT_LT(q, static_cast<int>(suite.queries.size()));
    }
  }
  EXPECT_TRUE(std::isfinite(solution.total_cost));
  EXPECT_GT(solution.total_cost, 0.0);
}

// The acceptance sweep: >= 10 targets, tight memo budget, nonzero fault
// seed — compression must complete without crash, produce a valid full
// assignment, and leave its robustness accounting in the metrics registry.
TEST(ChaosSweepTest, TightBudgetCompressionSurvivesEveryFaultSeed) {
  const int k = 2;
  int64_t total_retries = 0;
  std::string last_json;
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    auto fw = MakeChaosFramework(seed, /*threads=*/2, /*fault_p=*/0.25);
    auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/10, k);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();

    SearchBudget tight;
    tight.max_memo_exprs = 24;
    fw->optimizer()->set_default_budget(tight);

    EdgeCostProvider provider(fw->optimizer(), &*suite);
    provider.set_thread_pool(fw->thread_pool());
    auto topk = CompressTopKIndependent(&provider, k, true);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    ExpectValidAssignment(*topk, *suite, k);

    obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
    EXPECT_GT(snapshot.CounterValue("qtf.robustness.faults_injected"), 0);
    EXPECT_GT(snapshot.CounterValue("qtf.robustness.budget_exhausted"), 0);
    total_retries += snapshot.CounterValue("qtf.robustness.retries");
    last_json = snapshot.ToJson();
  }
  // Retry exhaustion at p = 0.25 is rare per seed, but retries themselves
  // are near-certain across the sweep.
  EXPECT_GT(total_retries, 0);

  if (const char* path = std::getenv("QTF_METRICS_JSON")) {
    std::ofstream out(path);
    out << last_json << "\n";
    EXPECT_TRUE(out.good());
  }
}

// Under near-certain faults (p = 0.9 per probe, so ~73% of edges stay
// unavailable after 3 attempts), TOPK must degrade — node-cost-order
// fallback assignments, NodeCost estimates in the total — and say so in
// both the solution and the registry, while still producing a valid full
// assignment.
TEST(ChaosSweepTest, HeavyFaultsDegradeGracefullyAndAreAccounted) {
  const int k = 2;
  auto fw = MakeChaosFramework(/*seed=*/11, /*threads=*/2, /*fault_p=*/0.9);
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/10, k);
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();

  EdgeCostProvider provider(fw->optimizer(), &*suite);
  provider.set_thread_pool(fw->thread_pool());
  auto topk = CompressTopKIndependent(&provider, k, true);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ExpectValidAssignment(*topk, *suite, k);

  EXPECT_GT(topk->degraded_targets, 0);
  EXPECT_GT(topk->estimated_edges, 0);

  obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
  EXPECT_GT(snapshot.CounterValue("qtf.robustness.retries"), 0);
  EXPECT_GT(snapshot.CounterValue("qtf.robustness.retry_exhausted"), 0);
  EXPECT_EQ(snapshot.CounterValue("qtf.robustness.degraded_targets"),
            topk->degraded_targets);
  EXPECT_GE(snapshot.CounterValue("qtf.robustness.estimated_edges"),
            topk->estimated_edges);
  EXPECT_GT(snapshot.CounterValue(
                std::string("qtf.robustness.fault.") +
                fault_sites::kOptimizerApplyRule),
            0);
}

struct ChaosRunOutput {
  CompressionSolution topk;
  int64_t optimizer_calls = 0;
};

ChaosRunOutput RunChaosCompression(int threads) {
  auto fw = MakeChaosFramework(/*seed=*/7, threads, /*fault_p=*/0.3);
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/8, /*k=*/2).value();
  // Memo budgets (not wall budgets) so truncation is deterministic.
  SearchBudget tight;
  tight.max_memo_exprs = 32;
  fw->optimizer()->set_default_budget(tight);

  EdgeCostProvider provider(fw->optimizer(), &suite);
  provider.set_thread_pool(fw->thread_pool());
  ChaosRunOutput out;
  out.topk = CompressTopKIndependent(&provider, 2, true).value();
  out.optimizer_calls = provider.optimizer_calls();
  return out;
}

// The determinism pillar: fault decisions are pure functions of
// (seed, site, key), budgets truncate on exact integer compares, and
// failures are memoized — so a chaos run is bit-for-bit reproducible at
// any thread count, including how many optimizer calls it spent.
TEST(ChaosDeterminismTest, SerialAndParallelRunsAreIdentical) {
  ChaosRunOutput serial = RunChaosCompression(/*threads=*/1);
  ChaosRunOutput parallel = RunChaosCompression(/*threads=*/4);
  ChaosRunOutput parallel2 = RunChaosCompression(/*threads=*/4);

  EXPECT_EQ(serial.topk.assignment, parallel.topk.assignment);
  EXPECT_EQ(serial.topk.total_cost, parallel.topk.total_cost);
  EXPECT_EQ(serial.topk.degraded_targets, parallel.topk.degraded_targets);
  EXPECT_EQ(serial.topk.estimated_edges, parallel.topk.estimated_edges);
  EXPECT_EQ(serial.optimizer_calls, parallel.optimizer_calls);

  // And across two parallel runs (schedule independence).
  EXPECT_EQ(parallel.topk.assignment, parallel2.topk.assignment);
  EXPECT_EQ(parallel.topk.total_cost, parallel2.topk.total_cost);
  EXPECT_EQ(parallel.optimizer_calls, parallel2.optimizer_calls);
}

// A disabled nonzero-seed injector must be indistinguishable from no
// injector at all: same outputs, same optimizer call count, no faults.
TEST(ChaosDeterminismTest, DisabledInjectorMatchesNoInjector) {
  auto run = [](uint64_t seed) {
    RuleTestFramework::Options options;
    options.fault_injector.seed = seed;
    options.fault_injector.fault_probability = 0.5;
    auto fw = RuleTestFramework::Create(std::move(options)).value();
    if (fw->fault_injector() != nullptr) {
      fw->fault_injector()->set_enabled(false);
    }
    GenerationConfig config;
    config.method = GenerationMethod::kPattern;
    config.seed = 99;
    auto suite = fw->suite_generator()
                     ->Generate(fw->LogicalRuleSingletons(6), 2, config)
                     .value();
    EdgeCostProvider provider(fw->optimizer(), &suite);
    ChaosRunOutput out;
    out.topk = CompressTopKIndependent(&provider, 2, true).value();
    out.optimizer_calls = provider.optimizer_calls();
    EXPECT_EQ(fw->metrics()->Snapshot().CounterValue(
                  "qtf.robustness.faults_injected"),
              0);
    return out;
  };
  ChaosRunOutput without = run(0);  // seed 0: no injector built at all
  ChaosRunOutput disabled = run(13);
  EXPECT_EQ(without.topk.assignment, disabled.topk.assignment);
  EXPECT_EQ(without.topk.total_cost, disabled.topk.total_cost);
  EXPECT_EQ(without.optimizer_calls, disabled.optimizer_calls);
  EXPECT_EQ(without.topk.degraded_targets, 0);
  EXPECT_EQ(disabled.topk.estimated_edges, 0);
}

// No faults, only a tight memo budget: every algorithm still returns a
// valid full compression (best-so-far plans, upper-bound costs) and the
// truncations are visible in qtf.robustness.budget_exhausted.
TEST(BudgetTest, ExhaustedSearchesStillYieldValidCompression) {
  auto fw = RuleTestFramework::Create({}).value();
  const int k = 2;
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/10, k).value();

  SearchBudget tight;
  tight.max_memo_exprs = 24;
  fw->optimizer()->set_default_budget(tight);

  EdgeCostProvider provider(fw->optimizer(), &suite);
  auto baseline = CompressBaseline(&provider);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectValidAssignment(*baseline, suite, k);
  auto topk = CompressTopKIndependent(&provider, k, true);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ExpectValidAssignment(*topk, suite, k);

  // Without faults nothing is estimated or degraded, and recomputing the
  // solution's cost from its assignment reproduces it exactly.
  EXPECT_EQ(topk->degraded_targets, 0);
  EXPECT_EQ(topk->estimated_edges, 0);
  auto recomputed = SolutionCost(&provider, topk->assignment);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_NEAR(*recomputed, topk->total_cost, 1e-9);

  obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
  EXPECT_GT(snapshot.CounterValue("qtf.robustness.budget_exhausted"), 0);
  EXPECT_EQ(snapshot.CounterValue("qtf.robustness.faults_injected"), 0);
}

// Budget truncation is deterministic: the same tight budget twice, on
// fresh frameworks, lands on the same plans, costs, and call counts.
TEST(BudgetTest, TruncationIsDeterministic) {
  auto run = [] {
    auto fw = RuleTestFramework::Create({}).value();
    auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/6, 2).value();
    SearchBudget tight;
    tight.max_memo_exprs = 24;
    fw->optimizer()->set_default_budget(tight);
    EdgeCostProvider provider(fw->optimizer(), &suite);
    ChaosRunOutput out;
    out.topk = CompressTopKIndependent(&provider, 2, true).value();
    out.optimizer_calls = provider.optimizer_calls();
    return out;
  };
  ChaosRunOutput a = run();
  ChaosRunOutput b = run();
  EXPECT_EQ(a.topk.assignment, b.topk.assignment);
  EXPECT_EQ(a.topk.total_cost, b.topk.total_cost);
  EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
}

// Cancellation from another thread: a loop of Optimize calls carrying the
// token must stop promptly once Cancel() fires, surface kCancelled (never
// a partial result), keep the metrics ledger consistent, and leave the
// optimizer usable.
TEST(CancellationTest, MidOptimizeCancelFromAnotherThreadEndsPromptly) {
  auto fw = RuleTestFramework::Create({}).value();
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 4;
  config.seed = 404;
  GenerationOutcome outcome =
      fw->generator()->Generate({0}, config).value();
  ASSERT_TRUE(outcome.success);

  CancellationSource source;
  OptimizerOptions options;
  options.cancel = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    source.Cancel();
  });

  Status seen = Status::OK();
  // Far more iterations than can run in 2ms: the loop can only exit via
  // cancellation.
  for (int64_t i = 0; i < (int64_t{1} << 40); ++i) {
    auto result = fw->optimizer()->Optimize(outcome.query, options);
    if (!result.ok()) {
      seen = result.status();
      break;
    }
    ASSERT_NE(result->plan, nullptr);
  }
  canceller.join();
  EXPECT_EQ(seen.code(), StatusCode::kCancelled) << seen.ToString();

  obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
  EXPECT_GE(snapshot.CounterValue("qtf.robustness.cancelled"), 1);
  EXPECT_EQ(snapshot.CounterValue("qtf.optimizer.invocations"),
            fw->optimizer()->invocation_count());

  // The optimizer survives: a fresh, un-cancelled call still plans.
  auto after = fw->optimizer()->Optimize(outcome.query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->plan, nullptr);
}

// One CancellationSource stops every layer: generation, prefetch,
// compression, and correctness execution all see the shared token.
TEST(CancellationTest, OneTokenStopsEveryLayer) {
  auto fw = RuleTestFramework::Create({}).value();
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/4, 2).value();

  CancellationSource source;
  source.Cancel();

  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.cancel = source.token();
  auto generation = fw->generator()->Generate({0}, config);
  ASSERT_FALSE(generation.ok());
  EXPECT_EQ(generation.status().code(), StatusCode::kCancelled);

  EdgeCostProvider provider(fw->optimizer(), &suite);
  provider.set_cancellation(source.token());
  auto compressed = CompressTopKIndependent(&provider, 2, true);
  ASSERT_FALSE(compressed.ok());
  EXPECT_EQ(compressed.status().code(), StatusCode::kCancelled);

  auto report = fw->runner()->Run(suite, suite.per_target, source.token());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

// Correctness execution under injected optimizer *and* executor faults:
// transient failures are retried or skipped (and counted), but are never
// reported as correctness violations — chaos must not create false bug
// reports.
TEST(ChaosCorrectnessTest, InjectedFaultsNeverBecomeViolations) {
  // The batched executor probes once per (node, batch); the tiny chaos
  // tables fit in one batch per node, so the probe count stays close to
  // the plan's node count and most executions succeed within their retry
  // budget. Validations that stay unavailable are skipped and counted, so
  // a higher probe count degrades coverage, never correctness.
  auto fw = MakeChaosFramework(/*seed=*/5, /*threads=*/1, /*fault_p=*/0.05);
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/6, 2).value();

  auto report = fw->runner()->Run(suite, suite.per_target);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->violations.empty());
  EXPECT_GT(report->plans_executed, 0);
  EXPECT_GE(report->skipped_unavailable, 0);

  obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
  EXPECT_GT(snapshot.CounterValue("qtf.robustness.faults_injected"), 0);
  // The suite was built with injection off, so these are the runner's own
  // retries.
  EXPECT_GT(snapshot.CounterValue("qtf.robustness.retries"), 0);
  EXPECT_EQ(snapshot.CounterValue("qtf.robustness.skipped_validations"),
            report->skipped_unavailable);
}

}  // namespace
}  // namespace qtf
