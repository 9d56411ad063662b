// Chaos suite for the robustness subsystem (docs/robustness.md):
// deadline-bounded, cancellable optimization under deterministic fault
// injection.
//
// The properties asserted here are the acceptance criteria of the
// subsystem:
//   * a fault-seed sweep never crashes and never leaks an injected error
//     as anything but a propagated Status;
//   * at a fixed nonzero seed, serial and parallel runs produce identical
//     outputs and identical optimizer_calls();
//   * runs whose searches hit the memo caps still yield a valid (full)
//     compression;
//   * a passed deadline truncates a search at a deterministic point;
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

#include "common/hash.h"
#include "compress/compression.h"
#include "optimizer/plan_cache.h"
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

// Queries grown by this many extra operators make searches of a
// 10-singleton suite hit the memo caps: 4 of its generation searches and,
// without faults, 5 of TOPK's 21 edge-cost searches at k = 2. Compression
// then runs over truncated costs.
constexpr int kSaturatingExtraOps = 8;

// Generates an n-target suite with injection gated off, so every chaos
// phase starts from the same clean, deterministic suite.
Result<TestSuite> MakeCleanSuite(RuleTestFramework* fw, int n_targets, int k,
                                 int extra_ops = 1) {
  if (fw->fault_injector() != nullptr) {
    fw->fault_injector()->set_enabled(false);
  }
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = extra_ops;
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

// The acceptance sweep: >= 10 targets, searches that hit the memo caps,
// nonzero fault seed — compression must complete without crash, produce a
// valid full assignment, and leave its robustness accounting in the
// metrics registry.
TEST(ChaosSweepTest, SaturatedCompressionSurvivesEveryFaultSeed) {
  const int k = 2;
  int64_t total_retries = 0;
  std::string last_json;
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    auto fw = MakeChaosFramework(seed, /*threads=*/2, /*fault_p=*/0.25);
    auto suite =
        MakeCleanSuite(fw.get(), /*n_targets=*/10, k, kSaturatingExtraOps);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();

    EdgeCostProvider provider(fw->optimizer(), &*suite);
    provider.set_thread_pool(fw->thread_pool());
    auto topk = CompressTopKIndependent(&provider, k, true);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    ExpectValidAssignment(*topk, *suite, k);

    obs::MetricsSnapshot snapshot = fw->metrics()->Snapshot();
    EXPECT_GT(snapshot.CounterValue("qtf.robustness.faults_injected"), 0);
    // Under faults a search the size of the caps rarely finishes, so the
    // truncated costs are mostly the suite's own Cost(q).
    EXPECT_GT(snapshot.CounterValue("qtf.optimizer.saturated"), 0);
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
  // Searches that hit the memo caps, which truncate deterministically.
  auto suite = MakeCleanSuite(fw.get(), /*n_targets=*/10, /*k=*/2,
                              kSaturatingExtraOps)
                   .value();
  EXPECT_GT(fw->metrics()->Snapshot().CounterValue("qtf.optimizer.saturated"),
            0);

  EdgeCostProvider provider(fw->optimizer(), &suite);
  provider.set_thread_pool(fw->thread_pool());
  ChaosRunOutput out;
  out.topk = CompressTopKIndependent(&provider, 2, true).value();
  out.optimizer_calls = provider.optimizer_calls();
  return out;
}

// The determinism pillar: fault decisions are pure functions of
// (seed, site, key), the memo caps truncate on exact integer compares, and
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

// No faults, only searches that hit the memo caps: every algorithm still
// returns a valid full compression (best-so-far plans, upper-bound costs)
// and the truncations are visible in qtf.optimizer.saturated.
TEST(SaturationTest, SaturatedSearchesStillYieldValidCompression) {
  auto fw = RuleTestFramework::Create({}).value();
  const int k = 2;
  auto suite =
      MakeCleanSuite(fw.get(), /*n_targets=*/10, k, kSaturatingExtraOps)
          .value();
  const int64_t saturated_before =
      fw->metrics()->Snapshot().CounterValue("qtf.optimizer.saturated");

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
  EXPECT_GT(snapshot.CounterValue("qtf.optimizer.saturated"),
            saturated_before);
  EXPECT_EQ(snapshot.CounterValue("qtf.robustness.budget_exhausted"), 0);
  EXPECT_EQ(snapshot.CounterValue("qtf.robustness.faults_injected"), 0);
}

// An already-expired deadline truncates a search deterministically: the
// clock is first read at the 64th exploration check, and it has passed
// by then on every run, so two runs stop at the same point and return the
// same best-so-far plan.
TEST(DeadlineTest, ExpiredDeadlineTruncatesAtTheSamePoint) {
  auto fw = RuleTestFramework::Create({}).value();
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 4;
  config.seed = 404;
  // Its full search stores 841 expressions, far past the first check.
  GenerationOutcome outcome =
      fw->generator()
          ->Generate({fw->rules().FindByName("JoinAssociativityRight")},
                     config)
          .value();
  ASSERT_TRUE(outcome.success);
  // Every call below searches: none is answered by the generation's
  // cached Plan(q).
  PlanCacheDetachGuard cold(fw->optimizer());
  auto full = fw->optimizer()->Optimize(outcome.query);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->budget_exhausted);

  OptimizerOptions options;
  options.deadline = Deadline::After(-1.0);
  auto a = fw->optimizer()->Optimize(outcome.query, options);
  auto b = fw->optimizer()->Optimize(outcome.query, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->budget_exhausted);
  EXPECT_TRUE(b->budget_exhausted);
  EXPECT_LT(a->expr_count, full->expr_count);
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(Fnv1a(PhysicalTreeToString(*a->plan, nullptr)),
            Fnv1a(PhysicalTreeToString(*b->plan, nullptr)));
  EXPECT_EQ(a->expr_count, b->expr_count);
  EXPECT_EQ(a->group_count, b->group_count);
  EXPECT_GE(fw->metrics()->Snapshot().CounterValue(
                "qtf.robustness.budget_exhausted"),
            2);
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
