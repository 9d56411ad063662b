// Optimizer behavior: plan quality improvements from specific rules, rule
// tracking, cost monotonicity under rule disabling (the property both TOPK's
// bound and the monotonicity pruning rely on), output-order normalization.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/memo.h"
#include "optimizer/optimizer.h"
#include "qgen/generators.h"
#include "rules/default_rules.h"
#include "storage/tpch.h"

namespace qtf {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTpchDatabase(TpchConfig{}).value();
    registry_ = MakeDefaultRuleRegistry();
    optimizer_ = std::make_unique<Optimizer>(registry_.get());
  }

  std::shared_ptr<const GetOp> Get(const std::string& name,
                                   ColumnRegistry* reg) {
    return GetOp::Create(db_->catalog().GetTable(name).value(), reg);
  }

  RuleId Id(const std::string& name) {
    RuleId id = registry_->FindByName(name);
    EXPECT_GE(id, 0) << name;
    return id;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<RuleRegistry> registry_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(OptimizerTest, SelectionPushdownLowersCost) {
  // select * from lineitem join orders on l_orderkey = o_orderkey
  // where o_totalprice > X  — pushing the filter below the join pays off.
  auto reg = std::make_shared<ColumnRegistry>();
  auto lineitem = Get("lineitem", reg.get());
  auto orders = Get("orders", reg.get());
  ExprPtr join_pred = Eq(Col(lineitem->columns()[0], ValueType::kInt64),
                         Col(orders->columns()[0], ValueType::kInt64));
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, lineitem, orders,
                                       join_pred);
  auto select = std::make_shared<SelectOp>(
      join, Cmp(CompareOp::kGt,
                Col(orders->columns()[3], ValueType::kDouble),
                LitDouble(400000.0)));
  Query query{select, reg};

  auto base = optimizer_->Optimize(query);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->exercised_rules.count(Id("SelectPushBelowJoinRight")) >
              0);

  OptimizerOptions no_pushdown;
  no_pushdown.disabled_rules = {Id("SelectPushBelowJoinLeft"),
                                Id("SelectPushBelowJoinRight"),
                                Id("SelectIntoJoin"), Id("SelectSplit")};
  auto restricted = optimizer_->Optimize(query, no_pushdown);
  ASSERT_TRUE(restricted.ok());
  EXPECT_GT(restricted->cost, base->cost);
}

TEST_F(OptimizerTest, HashJoinBeatsNlJoinOnEquiJoin) {
  auto reg = std::make_shared<ColumnRegistry>();
  auto lineitem = Get("lineitem", reg.get());
  auto orders = Get("orders", reg.get());
  auto join = std::make_shared<JoinOp>(
      JoinKind::kInner, lineitem, orders,
      Eq(Col(lineitem->columns()[0], ValueType::kInt64),
         Col(orders->columns()[0], ValueType::kInt64)));
  Query query{join, reg};

  auto base = optimizer_->Optimize(query);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->plan->kind(), PhysicalOpKind::kHashJoin);

  OptimizerOptions no_hash;
  no_hash.disabled_rules.insert(Id("JoinToHashJoin"));
  auto nl_only = optimizer_->Optimize(query, no_hash);
  ASSERT_TRUE(nl_only.ok());
  // The winning join may be the commuted one, wrapped in a (free)
  // output-order Compute.
  const PhysicalOp* node = nl_only->plan.get();
  if (node->kind() == PhysicalOpKind::kCompute) node = node->child(0).get();
  EXPECT_EQ(node->kind(), PhysicalOpKind::kNlJoin);
  EXPECT_GT(nl_only->cost, base->cost);
}

TEST_F(OptimizerTest, JoinOrderMattersAndCommutativityHelps) {
  // lineitem x region cross-ordered badly: with commutativity the optimizer
  // can put the small side on the build side.
  auto reg = std::make_shared<ColumnRegistry>();
  auto lineitem = Get("lineitem", reg.get());
  auto nation = Get("nation", reg.get());
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, lineitem, nation,
                                       nullptr);  // cross join
  Query query{join, reg};
  auto base = optimizer_->Optimize(query);
  ASSERT_TRUE(base.ok());

  OptimizerOptions no_commute;
  no_commute.disabled_rules.insert(Id("JoinCommutativity"));
  auto restricted = optimizer_->Optimize(query, no_commute);
  ASSERT_TRUE(restricted.ok());
  EXPECT_GE(restricted->cost, base->cost);
}

TEST_F(OptimizerTest, OutputOrderNormalizedAfterCommutativity) {
  // Even when the winning plan is the commuted join, the plan's output
  // columns must equal the query's declared output order.
  auto reg = std::make_shared<ColumnRegistry>();
  auto lineitem = Get("lineitem", reg.get());
  auto nation = Get("nation", reg.get());
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, lineitem, nation,
                                       nullptr);
  Query query{join, reg};
  auto result = optimizer_->Optimize(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan->OutputColumns(), join->OutputColumns());
}

TEST_F(OptimizerTest, RuleSetTrackingIncludesImplementationRules) {
  auto reg = std::make_shared<ColumnRegistry>();
  auto region = Get("region", reg.get());
  Query query{region, reg};
  auto result = optimizer_->Optimize(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exercised_rules.count(Id("GetToScan")) > 0);
}

TEST_F(OptimizerTest, CostMonotonicityOverRandomQueries) {
  // Property: for random queries, disabling any subset (singleton) of
  // exercised logical rules never lowers the cost.
  RandomQueryGenerator generator(&db_->catalog(), 77);
  for (int i = 0; i < 25; ++i) {
    Query query = generator.Generate();
    auto base = optimizer_->Optimize(query);
    if (!base.ok()) continue;
    for (RuleId id : base->exercised_rules) {
      if (registry_->rule(id).type() != RuleType::kExploration) continue;
      OptimizerOptions options;
      options.disabled_rules.insert(id);
      auto restricted = optimizer_->Optimize(query, options);
      ASSERT_TRUE(restricted.ok());
      EXPECT_GE(restricted->cost, base->cost - 1e-6)
          << registry_->rule(id).name();
    }
  }
}

TEST_F(OptimizerTest, DisablingPairsIsMonotoneToo) {
  RandomQueryGenerator generator(&db_->catalog(), 99);
  for (int i = 0; i < 10; ++i) {
    Query query = generator.Generate();
    auto base = optimizer_->Optimize(query);
    if (!base.ok()) continue;
    std::vector<RuleId> logical;
    for (RuleId id : base->exercised_rules) {
      if (registry_->rule(id).type() == RuleType::kExploration) {
        logical.push_back(id);
      }
    }
    for (size_t a = 0; a < logical.size(); ++a) {
      for (size_t b = a + 1; b < logical.size() && b < a + 3; ++b) {
        OptimizerOptions options;
        options.disabled_rules = {logical[a], logical[b]};
        auto restricted = optimizer_->Optimize(query, options);
        ASSERT_TRUE(restricted.ok());
        EXPECT_GE(restricted->cost, base->cost - 1e-6);
      }
    }
  }
}

TEST_F(OptimizerTest, InvalidQueryRejected) {
  Query empty;
  EXPECT_FALSE(optimizer_->Optimize(empty).ok());
}

TEST_F(OptimizerTest, DeterministicAcrossInvocations) {
  auto reg = std::make_shared<ColumnRegistry>();
  auto nation = Get("nation", reg.get());
  auto region = Get("region", reg.get());
  auto join = std::make_shared<JoinOp>(
      JoinKind::kInner, nation, region,
      Eq(Col(nation->columns()[2], ValueType::kInt64),
         Col(region->columns()[0], ValueType::kInt64)));
  Query query{join, reg};
  auto a = optimizer_->Optimize(query);
  auto b = optimizer_->Optimize(query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->cost, b->cost);
  EXPECT_TRUE(PhysicalTreeEquals(*a->plan, *b->plan));
  EXPECT_EQ(a->exercised_rules, b->exercised_rules);
}

TEST_F(OptimizerTest, LojSimplificationFiresWithNullRejectingFilter) {
  auto reg = std::make_shared<ColumnRegistry>();
  auto nation = Get("nation", reg.get());
  auto region = Get("region", reg.get());
  auto loj = std::make_shared<JoinOp>(
      JoinKind::kLeftOuter, nation, region,
      Eq(Col(nation->columns()[2], ValueType::kInt64),
         Col(region->columns()[0], ValueType::kInt64)));
  auto select = std::make_shared<SelectOp>(
      loj, Eq(Col(region->columns()[1], ValueType::kString),
              LitString("ASIA")));
  Query query{select, reg};
  auto result = optimizer_->Optimize(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exercised_rules.count(Id("LojToJoin")) > 0);

  // With an IS NULL filter instead (not null-rejecting), the rule must not
  // fire.
  auto select2 = std::make_shared<SelectOp>(
      loj, IsNull(Col(region->columns()[1], ValueType::kString)));
  Query query2{select2, reg};
  auto result2 = optimizer_->Optimize(query2);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->exercised_rules.count(Id("LojToJoin")), 0u);
}

TEST_F(OptimizerTest, QueryLargerThanTheMemoIsRefused) {
  // One operator more than the memo holds: the query's own tree cannot be
  // stored, so the search is refused before exploring anything.
  auto reg = std::make_shared<ColumnRegistry>();
  auto nation = Get("nation", reg.get());
  LogicalOpPtr root = nation;
  for (int64_t key = 0; key < Memo::kMaxTotalExprs; ++key) {
    root = std::make_shared<SelectOp>(
        root, Eq(Col(nation->columns()[0], ValueType::kInt64), LitInt(key)));
  }
  auto result = optimizer_->Optimize(Query{root, reg});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

}  // namespace
}  // namespace qtf
