// Plan-cache keying and reuse (docs/parallelism.md): fingerprint stability
// across equivalent trees, LRU eviction, disabled-rule-set keying, and the
// optimizer consulting the cache so suite generation and compression share
// work.

#include "optimizer/plan_cache.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "testing/framework.h"

namespace qtf {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fw = RuleTestFramework::Create({});
    ASSERT_TRUE(fw.ok());
    fw_ = std::move(fw).value();
  }

  /// Deterministic generation: the same seed re-creates the same logical
  /// tree in a fresh registry (same structure, same column ids).
  Query MakeQuery(uint64_t seed, int extra_ops = 2) {
    GenerationConfig config;
    config.method = GenerationMethod::kPattern;
    config.extra_ops = extra_ops;
    config.seed = seed;
    GenerationOutcome outcome =
        fw_->generator()->Generate({fw_->LogicalRules()[0]}, config).value();
    EXPECT_TRUE(outcome.success);
    return outcome.query;
  }

  OptimizeResult MakeResult(double cost) {
    OptimizeResult result;
    result.cost = cost;
    return result;
  }

  std::unique_ptr<RuleTestFramework> fw_;
};

TEST_F(PlanCacheTest, FingerprintStableAcrossEquivalentTrees) {
  Query a = MakeQuery(5);
  // Regenerating the same seed through the same framework now returns the
  // interner's canonical instance — hash-consing at work.
  Query b = MakeQuery(5);
  EXPECT_EQ(a.root.get(), b.root.get());

  // A second framework (separate interner) rebuilds the tree from scratch:
  // distinct objects, equal structure, and — the cache-keying property —
  // the same fingerprint.
  auto fw2 = RuleTestFramework::Create({}).value();
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 2;
  config.seed = 5;
  Query c =
      fw2->generator()->Generate({fw2->LogicalRules()[0]}, config).value().query;
  ASSERT_NE(a.root.get(), c.root.get());
  ASSERT_TRUE(LogicalTreeEquals(*a.root, *c.root));
  EXPECT_EQ(TreeFingerprint(*a.root), TreeFingerprint(*c.root));

  Query d = MakeQuery(6);
  if (!LogicalTreeEquals(*a.root, *d.root)) {
    EXPECT_NE(TreeFingerprint(*a.root), TreeFingerprint(*d.root));
  }
}

TEST_F(PlanCacheTest, HitRequiresEquivalentTreeNotSameObject) {
  PlanCache cache;
  Query a = MakeQuery(7);
  cache.Insert(a, {}, MakeResult(123.0));
  // An equivalent tree built by a different framework (so not the same
  // canonical object) hits the same entry: keying is structural.
  auto fw2 = RuleTestFramework::Create({}).value();
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 2;
  config.seed = 7;
  Query b =
      fw2->generator()->Generate({fw2->LogicalRules()[0]}, config).value().query;
  ASSERT_NE(a.root.get(), b.root.get());
  auto hit = cache.Lookup(b, {});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 123.0);
  EXPECT_EQ(cache.hits(), 1);
}

TEST_F(PlanCacheTest, DisabledRuleSetIsPartOfTheKey) {
  PlanCache cache;
  Query q = MakeQuery(8);
  cache.Insert(q, {}, MakeResult(1.0));
  cache.Insert(q, {0}, MakeResult(2.0));
  cache.Insert(q, {0, 3}, MakeResult(3.0));
  EXPECT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.Lookup(q, {})->cost, 1.0);
  EXPECT_EQ(cache.Lookup(q, {0})->cost, 2.0);
  EXPECT_EQ(cache.Lookup(q, {0, 3})->cost, 3.0);
  EXPECT_FALSE(cache.Lookup(q, {3}).has_value());
}

TEST_F(PlanCacheTest, LruEvictionKeepsRecentlyUsedEntries) {
  PlanCache cache(/*capacity=*/2);
  // Three guaranteed-distinct keys: same tree, different disabled sets.
  Query q = MakeQuery(10);
  const RuleIdSet a = {}, b = {0}, c = {1};

  cache.Insert(q, a, MakeResult(1.0));
  cache.Insert(q, b, MakeResult(2.0));
  ASSERT_TRUE(cache.Lookup(q, a).has_value());  // refresh a: b is now LRU
  cache.Insert(q, c, MakeResult(3.0));          // evicts b

  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(q, a).has_value());
  EXPECT_FALSE(cache.Lookup(q, b).has_value());
  EXPECT_TRUE(cache.Lookup(q, c).has_value());
}

TEST_F(PlanCacheTest, ReinsertIsFirstWriteWins) {
  PlanCache cache;
  Query q = MakeQuery(13);
  cache.Insert(q, {}, MakeResult(1.0));
  cache.Insert(q, {}, MakeResult(99.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(q, {})->cost, 1.0);
}

TEST_F(PlanCacheTest, OptimizerConsultsTheCache) {
  // Generate before attaching the test cache — generation itself optimizes
  // the candidate and would pre-populate it.
  Query q = MakeQuery(14);
  PlanCache cache;
  fw_->optimizer()->set_plan_cache(&cache);

  auto first = fw_->optimizer()->Optimize(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  auto second = fw_->optimizer()->Optimize(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(second->cost, first->cost);
  EXPECT_EQ(second->exercised_rules, first->exercised_rules);

  // A hit still counts as an invocation — Figure-14-style accounting must
  // not change when caching is on.
  int64_t before = fw_->optimizer()->invocation_count();
  ASSERT_TRUE(fw_->optimizer()->Optimize(q).ok());
  EXPECT_EQ(fw_->optimizer()->invocation_count(), before + 1);

  fw_->optimizer()->set_plan_cache(fw_->plan_cache());
}

TEST_F(PlanCacheTest, CompressionAfterSuiteGenerationReusesWork) {
  // Build a suite, then run the pair-graph edge-cost construction twice
  // with fresh providers — the way experiments re-run across
  // configurations. The second construction must be answered from the
  // shared cache.
  auto targets = fw_->LogicalRuleSingletons(4);
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 2;
  config.seed = 21;
  auto suite = fw_->suite_generator()->Generate(targets, 2, config);
  ASSERT_TRUE(suite.ok());

  PlanCache cache;
  fw_->optimizer()->set_plan_cache(&cache);

  EdgeCostProvider first(fw_->optimizer(), &*suite);
  auto cold = CompressTopKIndependent(&first, 2, true);
  ASSERT_TRUE(cold.ok());
  int64_t hits_after_cold = cache.hits();

  EdgeCostProvider second(fw_->optimizer(), &*suite);
  auto warm = CompressTopKIndependent(&second, 2, true);
  ASSERT_TRUE(warm.ok());

  EXPECT_GT(cache.hits(), hits_after_cold);
  EXPECT_GT(cache.hit_rate(), 0.0);
  // Identical algorithm outputs and identical invocation accounting.
  EXPECT_EQ(warm->assignment, cold->assignment);
  EXPECT_EQ(warm->total_cost, cold->total_cost);
  EXPECT_EQ(warm->optimizer_calls, cold->optimizer_calls);

  fw_->optimizer()->set_plan_cache(fw_->plan_cache());
}

TEST_F(PlanCacheTest, ConcurrentOptimizeSharesOneEntry) {
  Query q = MakeQuery(16);
  PlanCache cache;
  fw_->optimizer()->set_plan_cache(&cache);

  ThreadPool pool(4);
  std::vector<double> costs = ParallelFor(&pool, 16, [&](int) {
    auto result = fw_->optimizer()->Optimize(q);
    QTF_CHECK(result.ok());
    return result->cost;
  });
  for (double cost : costs) EXPECT_EQ(cost, costs[0]);
  // Racing misses may compute a few times, but first-write-wins keeps one
  // entry per key.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.hits(), 0);

  fw_->optimizer()->set_plan_cache(fw_->plan_cache());
}

TEST_F(PlanCacheTest, MetricsMirrorTheAccessors) {
  obs::MetricsRegistry registry;
  PlanCache cache(/*capacity=*/2);
  cache.set_metrics(&registry);

  Query q = MakeQuery(18);
  EXPECT_FALSE(cache.Lookup(q, {}).has_value());      // miss
  cache.Insert(q, {}, MakeResult(1.0));
  EXPECT_TRUE(cache.Lookup(q, {}).has_value());       // hit
  cache.Insert(q, {0}, MakeResult(2.0));
  cache.Insert(q, {1}, MakeResult(3.0));              // evicts the LRU entry

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("qtf.plan_cache.hits"), cache.hits());
  EXPECT_EQ(snapshot.CounterValue("qtf.plan_cache.misses"), cache.misses());
  EXPECT_EQ(snapshot.CounterValue("qtf.plan_cache.evictions"),
            cache.evictions());
  EXPECT_EQ(snapshot.GaugeValue("qtf.plan_cache.size"),
            static_cast<int64_t>(cache.size()));
  EXPECT_EQ(cache.evictions(), 1);

  // Clear() resets the per-cache accessors and the size gauge, but the
  // cumulative registry counters keep their history.
  cache.Clear();
  obs::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.GaugeValue("qtf.plan_cache.size"), 0);
  EXPECT_EQ(after.CounterValue("qtf.plan_cache.misses"),
            snapshot.CounterValue("qtf.plan_cache.misses"));
  EXPECT_EQ(cache.misses(), 0);

  // Detaching stops reporting without touching history.
  cache.set_metrics(nullptr);
  EXPECT_FALSE(cache.Lookup(q, {}).has_value());
  EXPECT_EQ(registry.Snapshot().CounterValue("qtf.plan_cache.misses"),
            after.CounterValue("qtf.plan_cache.misses"));
}

TEST_F(PlanCacheTest, ClearResetsEntriesAndStats) {
  PlanCache cache;
  Query q = MakeQuery(17);
  cache.Insert(q, {}, MakeResult(1.0));
  ASSERT_TRUE(cache.Lookup(q, {}).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_FALSE(cache.Lookup(q, {}).has_value());
}

}  // namespace
}  // namespace qtf
