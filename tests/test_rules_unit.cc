// Direct unit tests of every exploration rule's Apply(): preconditions
// accept/reject the right trees, and outputs are valid trees preserving the
// output column set. (End-to-end semantic validation by execution lives in
// test_rules_correctness.cc; these tests pin down each rule's *local*
// contract.)

#include <gtest/gtest.h>

#include "logical/validate.h"
#include "rules/default_rules.h"
#include "rules/exploration_rules.h"
#include "storage/tpch.h"

namespace qtf {
namespace {

class RuleUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTpchDatabase(TpchConfig{}).value();
    registry_ = std::make_shared<ColumnRegistry>();
    nation_ = GetOp::Create(db_->catalog().GetTable("nation").value(),
                            registry_.get());
    region_ = GetOp::Create(db_->catalog().GetTable("region").value(),
                            registry_.get());
    customer_ = GetOp::Create(db_->catalog().GetTable("customer").value(),
                              registry_.get());
    orders_ = GetOp::Create(db_->catalog().GetTable("orders").value(),
                            registry_.get());
  }

  /// Applies `rule` to `bound` and validates every output tree: it must
  /// pass ValidateTree and preserve the output column *set*.
  std::vector<LogicalOpPtr> Apply(const Rule& rule, const LogicalOpPtr& bound) {
    const auto& exploration = static_cast<const ExplorationRule&>(rule);
    std::vector<LogicalOpPtr> out;
    exploration.Apply(*bound, &out);
    ColumnSet expected;
    for (ColumnId id : bound->OutputColumns()) expected.insert(id);
    for (const LogicalOpPtr& output : out) {
      Status status = ValidateTree(*output, *registry_);
      EXPECT_TRUE(status.ok()) << rule.name() << ": " << status.ToString();
      ColumnSet got;
      for (ColumnId id : output->OutputColumns()) got.insert(id);
      EXPECT_EQ(got, expected) << rule.name() << " changed the output set";
    }
    return out;
  }

  ExprPtr NationRegionPred() {
    return Eq(Col(nation_->columns()[2], ValueType::kInt64),
              Col(region_->columns()[0], ValueType::kInt64));
  }
  ExprPtr CustomerNationPred() {
    return Eq(Col(customer_->columns()[2], ValueType::kInt64),
              Col(nation_->columns()[0], ValueType::kInt64));
  }
  ExprPtr OrdersCustomerPred() {
    return Eq(Col(orders_->columns()[1], ValueType::kInt64),
              Col(customer_->columns()[0], ValueType::kInt64));
  }

  /// A rule of the default registry, wherever it is defined: the rules
  /// ported to rules/dsl/*.qtr have no C++ factory.
  const Rule& Named(const std::string& name) {
    const RuleId id = rules_->FindByName(name);
    QTF_CHECK(id >= 0) << "no rule named " << name;
    return rules_->rule(id);
  }

  std::unique_ptr<Database> db_;
  ColumnRegistryPtr registry_;
  std::shared_ptr<const GetOp> nation_, region_, customer_, orders_;
  std::unique_ptr<RuleRegistry> rules_ = MakeDefaultRuleRegistry();
};

// ---- join rules ----

TEST_F(RuleUnitTest, JoinCommutativitySwapsChildren) {
  const Rule& rule = Named("JoinCommutativity");
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  auto out = Apply(rule, join);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->child(0).get(), region_.get());
  EXPECT_EQ(out[0]->child(1).get(), nation_.get());
}

TEST_F(RuleUnitTest, JoinAssociativityLeftRedistributesConjuncts) {
  // (customer join nation) join region, with preds customer-nation and
  // nation-region. Reassociation must put the nation-region conjunct into
  // the new inner join.
  const Rule& rule = Named("JoinAssociativityLeft");
  auto lower = std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_,
                                        CustomerNationPred());
  auto top = std::make_shared<JoinOp>(JoinKind::kInner, lower, region_,
                                      NationRegionPred());
  auto out = Apply(rule, top);
  ASSERT_EQ(out.size(), 1u);
  const auto& new_top = static_cast<const JoinOp&>(*out[0]);
  EXPECT_EQ(new_top.child(0).get(), customer_.get());
  const auto& inner = static_cast<const JoinOp&>(*new_top.child(1));
  EXPECT_EQ(inner.kind(), LogicalOpKind::kJoin);
  ASSERT_NE(inner.predicate(), nullptr);
  EXPECT_TRUE(ExprEquals(*inner.predicate(), *NationRegionPred()));
  ASSERT_NE(new_top.predicate(), nullptr);
  EXPECT_TRUE(ExprEquals(*new_top.predicate(), *CustomerNationPred()));
}

TEST_F(RuleUnitTest, JoinAssociativityRightMirrors) {
  const Rule& rule = Named("JoinAssociativityRight");
  auto lower = std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_,
                                        CustomerNationPred());
  auto top = std::make_shared<JoinOp>(JoinKind::kInner, orders_, lower,
                                      OrdersCustomerPred());
  auto out = Apply(rule, top);
  ASSERT_EQ(out.size(), 1u);
  const auto& new_top = static_cast<const JoinOp&>(*out[0]);
  const auto& inner = static_cast<const JoinOp&>(*new_top.child(0));
  EXPECT_EQ(inner.child(0).get(), orders_.get());
  EXPECT_EQ(inner.child(1).get(), customer_.get());
  EXPECT_EQ(new_top.child(1).get(), nation_.get());
}

TEST_F(RuleUnitTest, CrossJoinsReassociateWithNullPredicates) {
  const Rule& rule = Named("JoinAssociativityLeft");
  auto lower =
      std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_, nullptr);
  auto top =
      std::make_shared<JoinOp>(JoinKind::kInner, lower, region_, nullptr);
  auto out = Apply(rule, top);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(static_cast<const JoinOp&>(*out[0]).predicate(), nullptr);
}

// ---- outer-join rules ----

TEST_F(RuleUnitTest, LojToJoinRequiresNullRejection) {
  const Rule& rule = Named("LojToJoin");
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  // Null-rejecting filter on the right side: fires.
  auto good = std::make_shared<SelectOp>(
      loj,
      Eq(Col(region_->columns()[1], ValueType::kString), LitString("ASIA")));
  EXPECT_EQ(Apply(rule, good).size(), 1u);

  // IS NULL keeps the null-extended rows: must not fire.
  auto bad = std::make_shared<SelectOp>(
      loj, IsNull(Col(region_->columns()[1], ValueType::kString)));
  EXPECT_TRUE(Apply(rule, bad).empty());

  // Predicate only on the left side: must not fire either.
  auto left_only = std::make_shared<SelectOp>(
      loj, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(3)));
  EXPECT_TRUE(Apply(rule, left_only).empty());
}

TEST_F(RuleUnitTest, JoinLojAssocLeftRequiresPredOnAB) {
  const Rule& rule = Named("JoinLojAssocLeft");
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  // Top predicate customer-nation (A u B only): fires.
  auto good = std::make_shared<JoinOp>(JoinKind::kInner, customer_, loj,
                                       CustomerNationPred());
  auto out = Apply(rule, good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(static_cast<const JoinOp&>(*out[0]).join_kind(),
            JoinKind::kLeftOuter);

  // Top predicate touching C (region): must not fire.
  auto bad = std::make_shared<JoinOp>(
      JoinKind::kInner, customer_, loj,
      Eq(Col(customer_->columns()[2], ValueType::kInt64),
         Col(region_->columns()[0], ValueType::kInt64)));
  EXPECT_TRUE(Apply(rule, bad).empty());
}

TEST_F(RuleUnitTest, LojLojAssocRightNeedsNullRejectingInnerPred) {
  const Rule& rule = Named("LojLojAssocRight");
  auto lower = std::make_shared<JoinOp>(JoinKind::kLeftOuter, customer_,
                                        nation_, CustomerNationPred());
  // Top pred nation-region: references only B u C and rejects NULLs of B.
  auto good = std::make_shared<JoinOp>(JoinKind::kLeftOuter, lower, region_,
                                       NationRegionPred());
  EXPECT_EQ(Apply(rule, good).size(), 1u);

  // Top pred referencing A (customer): must not fire.
  auto bad = std::make_shared<JoinOp>(
      JoinKind::kLeftOuter, lower, region_,
      Eq(Col(customer_->columns()[2], ValueType::kInt64),
         Col(region_->columns()[0], ValueType::kInt64)));
  EXPECT_TRUE(Apply(rule, bad).empty());

  // Top pred IS NULL on B: not null-rejecting -> must not fire.
  auto not_rejecting = std::make_shared<JoinOp>(
      JoinKind::kLeftOuter, lower, region_,
      IsNull(Col(nation_->columns()[0], ValueType::kInt64)));
  EXPECT_TRUE(Apply(rule, not_rejecting).empty());
}

// ---- select rules ----

TEST_F(RuleUnitTest, SelectPushBelowJoinSplitsBySide) {
  ExprPtr left_conjunct =
      Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(3));
  ExprPtr right_conjunct =
      Eq(Col(region_->columns()[1], ValueType::kString), LitString("ASIA"));
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  auto select = std::make_shared<SelectOp>(
      join, And(left_conjunct, right_conjunct));

  const Rule& left_rule = Named("SelectPushBelowJoinLeft");
  auto left_out = Apply(left_rule, select);
  ASSERT_EQ(left_out.size(), 1u);
  // Remaining right conjunct stays above: root is still a Select.
  EXPECT_EQ(left_out[0]->kind(), LogicalOpKind::kSelect);
  EXPECT_EQ(left_out[0]->child(0)->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(left_out[0]->child(0)->child(0)->kind(), LogicalOpKind::kSelect);

  const Rule& right_rule = Named("SelectPushBelowJoinRight");
  auto right_out = Apply(right_rule, select);
  ASSERT_EQ(right_out.size(), 1u);
  EXPECT_EQ(right_out[0]->child(0)->child(1)->kind(),
            LogicalOpKind::kSelect);
}

TEST_F(RuleUnitTest, SelectPushBelowJoinNoPushableConjunct) {
  // Predicate spans both sides: nothing to push.
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(join, NationRegionPred());
  EXPECT_TRUE(Apply(Named("SelectPushBelowJoinLeft"), select).empty());
  EXPECT_TRUE(Apply(Named("SelectPushBelowJoinRight"), select).empty());
}

TEST_F(RuleUnitTest, SelectPushBelowLojOnlyPreservedSide) {
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  auto select = std::make_shared<SelectOp>(
      loj, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(3)));
  auto out = Apply(Named("SelectPushBelowLojLeft"), select);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kSelect);
}

TEST_F(RuleUnitTest, SelectMergeAndSplitRoundTrip) {
  ExprPtr p = Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1));
  ExprPtr q = Eq(Col(nation_->columns()[2], ValueType::kInt64), LitInt(2));
  auto inner = std::make_shared<SelectOp>(nation_, p);
  auto outer = std::make_shared<SelectOp>(inner, q);
  auto merged = Apply(Named("SelectMerge"), outer);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0]->kind(), LogicalOpKind::kSelect);
  EXPECT_EQ(merged[0]->child(0)->kind(), LogicalOpKind::kGet);

  auto split = Apply(Named("SelectSplit"), merged[0]);
  ASSERT_EQ(split.size(), 1u);
  EXPECT_EQ(split[0]->child(0)->kind(), LogicalOpKind::kSelect);
}

TEST_F(RuleUnitTest, SelectSplitNeedsTwoConjuncts) {
  auto select = std::make_shared<SelectOp>(
      nation_, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  EXPECT_TRUE(Apply(Named("SelectSplit"), select).empty());
}

TEST_F(RuleUnitTest, SelectPushBelowProjectExpandsComputedColumns) {
  ColumnId doubled = registry_->Allocate("doubled", ValueType::kInt64);
  auto project = std::make_shared<ProjectOp>(
      nation_,
      std::vector<ProjectItem>{
          {Col(nation_->columns()[0], ValueType::kInt64),
           nation_->columns()[0]},
          {Arith(ArithOp::kMul, Col(nation_->columns()[0], ValueType::kInt64),
                 LitInt(2)),
           doubled}});
  auto select = std::make_shared<SelectOp>(
      project, Cmp(CompareOp::kGt, Col(doubled, ValueType::kInt64),
                   LitInt(10)));
  auto out = Apply(*MakeSelectPushBelowProject(), select);
  ASSERT_EQ(out.size(), 1u);
  // The pushed predicate must reference the base column, not `doubled`.
  const auto& pushed_select =
      static_cast<const SelectOp&>(*out[0]->child(0));
  EXPECT_FALSE(ReferencesAny(*pushed_select.predicate(), {doubled}));
  EXPECT_TRUE(ReferencesAny(*pushed_select.predicate(),
                            {nation_->columns()[0]}));
}

TEST_F(RuleUnitTest, SelectPushBelowGroupByOnlyGroupColumns) {
  ColumnId cnt = registry_->Allocate("cnt", ValueType::kInt64);
  auto agg = std::make_shared<GroupByAggOp>(
      customer_, std::vector<ColumnId>{customer_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt}});
  // Group-column conjunct + aggregate conjunct.
  auto select = std::make_shared<SelectOp>(
      agg, And(Eq(Col(customer_->columns()[2], ValueType::kInt64), LitInt(7)),
               Cmp(CompareOp::kGt, Col(cnt, ValueType::kInt64), LitInt(2))));
  auto out = Apply(*MakeSelectPushBelowGroupBy(), select);
  ASSERT_EQ(out.size(), 1u);
  // The aggregate conjunct must remain above.
  ASSERT_EQ(out[0]->kind(), LogicalOpKind::kSelect);
  EXPECT_TRUE(ReferencesAny(
      *static_cast<const SelectOp&>(*out[0]).predicate(), {cnt}));
  // Aggregate-only predicate: nothing to push.
  auto agg_only = std::make_shared<SelectOp>(
      agg, Cmp(CompareOp::kGt, Col(cnt, ValueType::kInt64), LitInt(2)));
  EXPECT_TRUE(Apply(*MakeSelectPushBelowGroupBy(), agg_only).empty());
}

TEST_F(RuleUnitTest, SelectIntoJoinAbsorbsPredicate) {
  auto join =
      std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_, nullptr);
  auto select = std::make_shared<SelectOp>(join, NationRegionPred());
  auto out = Apply(Named("SelectIntoJoin"), select);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kJoin);
  EXPECT_NE(static_cast<const JoinOp&>(*out[0]).predicate(), nullptr);
}

TEST_F(RuleUnitTest, ProjectMergeFlattens) {
  ColumnId doubled = registry_->Allocate("doubled2", ValueType::kInt64);
  auto inner = std::make_shared<ProjectOp>(
      nation_,
      std::vector<ProjectItem>{
          {Arith(ArithOp::kAdd, Col(nation_->columns()[0], ValueType::kInt64),
                 LitInt(1)),
           doubled}});
  auto outer = std::make_shared<ProjectOp>(
      inner, std::vector<ProjectItem>{{Col(doubled, ValueType::kInt64),
                                       doubled}});
  auto out = Apply(*MakeProjectMerge(), outer);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kGet);
}

// ---- aggregation rules ----

TEST_F(RuleUnitTest, GroupByPushBelowJoinLeftPreconditions) {
  auto rule = MakeGroupByPushBelowJoinLeft();
  ColumnId cnt = registry_->Allocate("cnt3", ValueType::kInt64);
  // customer join nation on c_nationkey = n_nationkey (nation key: unique).
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_,
                                       CustomerNationPred());
  // Valid: group on c_nationkey (the left join column), aggregate on left.
  auto good = std::make_shared<GroupByAggOp>(
      join, std::vector<ColumnId>{customer_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt}});
  auto out = Apply(*rule, good);
  ASSERT_EQ(out.size(), 1u);
  // Output: Project over Join over pushed GroupByAgg(left).
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(out[0]->child(0)->child(0)->kind(), LogicalOpKind::kGroupByAgg);

  // Invalid: grouping does not include the left join column.
  ColumnId cnt2 = registry_->Allocate("cnt4", ValueType::kInt64);
  auto missing_join_col = std::make_shared<GroupByAggOp>(
      join, std::vector<ColumnId>{customer_->columns()[4]},  // c_mktsegment
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt2}});
  EXPECT_TRUE(Apply(*rule, missing_join_col).empty());

  // Invalid: aggregate argument from the right side.
  ColumnId sum_right = registry_->Allocate("sr", ValueType::kInt64);
  auto agg_from_right = std::make_shared<GroupByAggOp>(
      join, std::vector<ColumnId>{customer_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kSum,
                         Col(nation_->columns()[2], ValueType::kInt64)},
           sum_right}});
  EXPECT_TRUE(Apply(*rule, agg_from_right).empty());

  // Invalid: right side not unique on its join column (join customer with
  // orders on c_custkey = o_custkey: o_custkey is not a key of orders).
  auto non_unique_join = std::make_shared<JoinOp>(
      JoinKind::kInner, customer_, orders_,
      Eq(Col(customer_->columns()[0], ValueType::kInt64),
         Col(orders_->columns()[1], ValueType::kInt64)));
  ColumnId cnt5 = registry_->Allocate("cnt5", ValueType::kInt64);
  auto not_unique = std::make_shared<GroupByAggOp>(
      non_unique_join, std::vector<ColumnId>{customer_->columns()[0]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt5}});
  EXPECT_TRUE(Apply(*rule, not_unique).empty());
}

TEST_F(RuleUnitTest, GroupByPullAboveJoinLeftPreconditions) {
  auto rule = MakeGroupByPullAboveJoinLeft();
  ColumnId cnt = registry_->Allocate("cnt6", ValueType::kInt64);
  auto agg = std::make_shared<GroupByAggOp>(
      customer_, std::vector<ColumnId>{customer_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt}});
  // Valid: join the aggregate with nation on the group column.
  auto good = std::make_shared<JoinOp>(
      JoinKind::kInner, agg, nation_,
      Eq(Col(customer_->columns()[2], ValueType::kInt64),
         Col(nation_->columns()[0], ValueType::kInt64)));
  auto out = Apply(*rule, good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kGroupByAgg);
  EXPECT_EQ(out[0]->child(0)->child(0)->kind(), LogicalOpKind::kJoin);

  // Invalid: join predicate references the aggregate output.
  auto pred_on_agg = std::make_shared<JoinOp>(
      JoinKind::kInner, agg, nation_,
      Eq(Col(cnt, ValueType::kInt64),
         Col(nation_->columns()[0], ValueType::kInt64)));
  EXPECT_TRUE(Apply(*rule, pred_on_agg).empty());
}

TEST_F(RuleUnitTest, GroupByToDistinctOnlyWithoutAggregates) {
  auto rule = MakeGroupByToDistinct();
  auto plain = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[2]},
      std::vector<AggregateItem>{});
  auto out = Apply(*rule, plain);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kDistinct);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kProject);

  ColumnId cnt = registry_->Allocate("cnt7", ValueType::kInt64);
  auto with_agg = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, cnt}});
  EXPECT_TRUE(Apply(*rule, with_agg).empty());
}

TEST_F(RuleUnitTest, GroupByToDistinctSkipsProjectionOnFullRow) {
  auto rule = MakeGroupByToDistinct();
  auto full = std::make_shared<GroupByAggOp>(
      nation_, nation_->columns(), std::vector<AggregateItem>{});
  auto out = Apply(*rule, full);
  ASSERT_EQ(out.size(), 1u);
  // No identity projection in between (the anti-ping-pong special case).
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kGet);
}

TEST_F(RuleUnitTest, DistinctToGroupByUsesAllColumns) {
  auto rule = MakeDistinctToGroupBy();
  auto distinct = std::make_shared<DistinctOp>(nation_);
  auto out = Apply(*rule, distinct);
  ASSERT_EQ(out.size(), 1u);
  const auto& agg = static_cast<const GroupByAggOp&>(*out[0]);
  EXPECT_EQ(agg.group_cols(), nation_->columns());
  EXPECT_TRUE(agg.aggregates().empty());
}

TEST_F(RuleUnitTest, GroupByOnKeyEliminationPreconditions) {
  auto rule = MakeGroupByOnKeyElimination();
  ColumnId sum_col = registry_->Allocate("s1", ValueType::kInt64);
  // Grouping on the nation key: each group is one row.
  auto good = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[0]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kSum,
                         Col(nation_->columns()[2], ValueType::kInt64)},
           sum_col}});
  auto out = Apply(*rule, good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);

  // Grouping on a non-key: must not fire.
  ColumnId sum2 = registry_->Allocate("s2", ValueType::kInt64);
  auto non_key = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[2]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kSum,
                         Col(nation_->columns()[0], ValueType::kInt64)},
           sum2}});
  EXPECT_TRUE(Apply(*rule, non_key).empty());

  // COUNT(expr) is inexpressible per-row: must not fire.
  ColumnId c1 = registry_->Allocate("c1x", ValueType::kInt64);
  auto count_expr = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[0]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCount,
                         Col(nation_->columns()[2], ValueType::kInt64)},
           c1}});
  EXPECT_TRUE(Apply(*rule, count_expr).empty());

  // String MIN blocks the arithmetic identity trick: must not fire.
  ColumnId m1 = registry_->Allocate("m1", ValueType::kString);
  auto string_min = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{nation_->columns()[0]},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kMin,
                         Col(nation_->columns()[1], ValueType::kString)},
           m1}});
  EXPECT_TRUE(Apply(*rule, string_min).empty());

  // Scalar aggregate (no groups) must keep its one-row-on-empty semantics.
  ColumnId c2 = registry_->Allocate("c2x", ValueType::kInt64);
  auto scalar = std::make_shared<GroupByAggOp>(
      nation_, std::vector<ColumnId>{},
      std::vector<AggregateItem>{
          {AggregateCall{AggKind::kCountStar, nullptr}, c2}});
  EXPECT_TRUE(Apply(*rule, scalar).empty());
}

TEST_F(RuleUnitTest, DistinctEliminationRequiresKey) {
  auto rule = MakeDistinctElimination();
  // nation has a key: fires (as an identity projection).
  auto keyed = std::make_shared<DistinctOp>(nation_);
  auto out = Apply(*rule, keyed);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);

  // Projection away from the key: must not fire.
  auto no_key = std::make_shared<ProjectOp>(
      nation_, std::vector<ProjectItem>{
                   {Col(nation_->columns()[2], ValueType::kInt64),
                    nation_->columns()[2]}});
  auto unkeyed = std::make_shared<DistinctOp>(no_key);
  EXPECT_TRUE(Apply(*rule, unkeyed).empty());
}

// ---- semi/anti-join rules ----

TEST_F(RuleUnitTest, SemiJoinToJoinDistinctRequiresRightKey) {
  auto rule = MakeSemiJoinToJoinDistinct();
  // nation semijoin region on n_regionkey = r_regionkey (region unique).
  auto good = std::make_shared<JoinOp>(JoinKind::kLeftSemi, nation_, region_,
                                       NationRegionPred());
  auto out = Apply(*rule, good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(static_cast<const JoinOp&>(*out[0]->child(0)).join_kind(),
            JoinKind::kInner);

  // customer semijoin orders on c_custkey = o_custkey: orders not unique.
  auto bad = std::make_shared<JoinOp>(
      JoinKind::kLeftSemi, customer_, orders_,
      Eq(Col(customer_->columns()[0], ValueType::kInt64),
         Col(orders_->columns()[1], ValueType::kInt64)));
  EXPECT_TRUE(Apply(*rule, bad).empty());
}

TEST_F(RuleUnitTest, JoinToSemiJoinRequiresLeftOnlyProjection) {
  auto rule = MakeJoinToSemiJoin();
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  // Pass-through projection of left columns only: fires.
  auto left_only = std::make_shared<ProjectOp>(
      join, std::vector<ProjectItem>{
                {Col(nation_->columns()[0], ValueType::kInt64),
                 nation_->columns()[0]},
                {Col(nation_->columns()[1], ValueType::kString),
                 nation_->columns()[1]}});
  auto out = Apply(*rule, left_only);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(static_cast<const JoinOp&>(*out[0]->child(0)).join_kind(),
            JoinKind::kLeftSemi);

  // Projection touching a right column: must not fire.
  auto with_right = std::make_shared<ProjectOp>(
      join, std::vector<ProjectItem>{
                {Col(region_->columns()[1], ValueType::kString),
                 region_->columns()[1]}});
  EXPECT_TRUE(Apply(*rule, with_right).empty());
}

TEST_F(RuleUnitTest, AntiToLojNullFilterNeedsNonNullableWitness) {
  auto rule = MakeAntiToLojNullFilter();
  auto good = std::make_shared<JoinOp>(JoinKind::kLeftAnti, nation_, region_,
                                       NationRegionPred());
  auto out = Apply(*rule, good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kSelect);
  EXPECT_EQ(static_cast<const JoinOp&>(*out[0]->child(0)->child(0))
                .join_kind(),
            JoinKind::kLeftOuter);

  // Right side with only nullable columns: must not fire. Build one by
  // projecting customer to its nullable c_acctbal.
  auto nullable_only = std::make_shared<ProjectOp>(
      customer_, std::vector<ProjectItem>{
                     {Col(customer_->columns()[3], ValueType::kDouble),
                      customer_->columns()[3]}});
  auto bad = std::make_shared<JoinOp>(
      JoinKind::kLeftAnti, nation_, nullable_only,
      Cmp(CompareOp::kLt, Col(nation_->columns()[0], ValueType::kInt64),
          Col(customer_->columns()[3], ValueType::kDouble)));
  EXPECT_TRUE(Apply(*rule, bad).empty());
}

TEST_F(RuleUnitTest, SemiJoinCommuteSelectAlwaysFires) {
  auto semi = std::make_shared<JoinOp>(JoinKind::kLeftSemi, nation_, region_,
                                       NationRegionPred());
  auto select = std::make_shared<SelectOp>(
      semi, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(5)));
  auto out = Apply(*MakeSemiJoinCommuteSelect(), select);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kSelect);
}

// ---- union rules ----

TEST_F(RuleUnitTest, UnionCommutativityKeepsOutputIds) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> out_ids;
  for (ColumnId id : region_->columns()) {
    out_ids.push_back(registry_->Allocate("u", registry_->TypeOf(id)));
  }
  auto u = std::make_shared<UnionAllOp>(region_, r2, out_ids);
  auto out = Apply(Named("UnionAllCommutativity"), u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->OutputColumns(), u->OutputColumns());
  EXPECT_EQ(out[0]->child(0).get(), r2.get());
}

TEST_F(RuleUnitTest, UnionAssociativityReusesInnerIds) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  auto r3 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> inner_ids, outer_ids;
  for (ColumnId id : region_->columns()) {
    inner_ids.push_back(registry_->Allocate("i", registry_->TypeOf(id)));
  }
  for (ColumnId id : region_->columns()) {
    outer_ids.push_back(registry_->Allocate("o", registry_->TypeOf(id)));
  }
  auto inner = std::make_shared<UnionAllOp>(region_, r2, inner_ids);
  auto outer = std::make_shared<UnionAllOp>(inner, r3, outer_ids);
  auto out = Apply(Named("UnionAllAssociativity"), outer);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->child(0).get(), region_.get());
  EXPECT_EQ(out[0]->child(1)->kind(), LogicalOpKind::kUnionAll);
}

TEST_F(RuleUnitTest, ProjectPushBelowUnionAllRewritesBothSides) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> out_ids;
  for (ColumnId id : region_->columns()) {
    out_ids.push_back(registry_->Allocate("u2", registry_->TypeOf(id)));
  }
  auto u = std::make_shared<UnionAllOp>(region_, r2, out_ids);
  ColumnId tripled = registry_->Allocate("t", ValueType::kInt64);
  auto project = std::make_shared<ProjectOp>(
      u, std::vector<ProjectItem>{
             {Col(out_ids[0], ValueType::kInt64), out_ids[0]},
             {Arith(ArithOp::kMul, Col(out_ids[0], ValueType::kInt64),
                    LitInt(3)),
              tripled}});
  auto out = Apply(*MakeProjectPushBelowUnionAll(), project);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->kind(), LogicalOpKind::kUnionAll);
  EXPECT_EQ(out[0]->child(0)->kind(), LogicalOpKind::kProject);
  EXPECT_EQ(out[0]->child(1)->kind(), LogicalOpKind::kProject);
}

TEST_F(RuleUnitTest, SelectPushBelowUnionAllSubstitutesIds) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> out_ids;
  for (ColumnId id : region_->columns()) {
    out_ids.push_back(registry_->Allocate("u3", registry_->TypeOf(id)));
  }
  auto u = std::make_shared<UnionAllOp>(region_, r2, out_ids);
  auto select = std::make_shared<SelectOp>(
      u, Eq(Col(out_ids[1], ValueType::kString), LitString("ASIA")));
  auto out = Apply(*MakeSelectPushBelowUnionAll(), select);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0]->kind(), LogicalOpKind::kUnionAll);
  const auto& left_select = static_cast<const SelectOp&>(*out[0]->child(0));
  EXPECT_TRUE(ReferencesAny(*left_select.predicate(),
                            {region_->columns()[1]}));
  EXPECT_FALSE(ReferencesAny(*left_select.predicate(), {out_ids[1]}));
}

}  // namespace
}  // namespace qtf
