// Memo structure: insertion, deduplication, group creation, pattern
// binding.

#include <gtest/gtest.h>

#include "optimizer/memo.h"
#include "storage/tpch.h"

namespace qtf {
namespace {

using P = PatternNode;

class MemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTpchDatabase(TpchConfig{}).value();
    registry_ = std::make_shared<ColumnRegistry>();
    nation_ = GetOp::Create(db_->catalog().GetTable("nation").value(),
                            registry_.get());
    region_ = GetOp::Create(db_->catalog().GetTable("region").value(),
                            registry_.get());
    memo_ = std::make_unique<Memo>(/*rule_count=*/4);
  }

  std::unique_ptr<Database> db_;
  ColumnRegistryPtr registry_;
  std::shared_ptr<const GetOp> nation_, region_;
  std::unique_ptr<Memo> memo_;
};

TEST_F(MemoTest, InsertTreeCreatesGroupPerOperator) {
  auto select = std::make_shared<SelectOp>(
      nation_, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int root = memo_->InsertTree(*select);
  EXPECT_EQ(memo_->group_count(), 2);
  EXPECT_EQ(memo_->expr_count(), 2);
  EXPECT_EQ(memo_->group(root).exprs.size(), 1u);
}

TEST_F(MemoTest, ReinsertingSameTreeDeduplicates) {
  auto select = std::make_shared<SelectOp>(
      nation_, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int a = memo_->InsertTree(*select);
  int b = memo_->InsertTree(*select);
  EXPECT_EQ(a, b);
  EXPECT_EQ(memo_->expr_count(), 2);
}

TEST_F(MemoTest, SharedSubtreesReuseGroups) {
  auto s1 = std::make_shared<SelectOp>(
      nation_, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  auto s2 = std::make_shared<SelectOp>(
      nation_, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(2)));
  memo_->InsertTree(*s1);
  memo_->InsertTree(*s2);
  // Get(nation) group shared: 3 groups total (get, select1, select2).
  EXPECT_EQ(memo_->group_count(), 3);
}

TEST_F(MemoTest, InsertIntoTargetGroupAddsEquivalentExpr) {
  auto join = std::make_shared<JoinOp>(
      JoinKind::kInner, nation_, region_,
      Eq(Col(nation_->columns()[2], ValueType::kInt64),
         Col(region_->columns()[0], ValueType::kInt64)));
  int root = memo_->InsertTree(*join);
  ASSERT_EQ(memo_->group(root).exprs.size(), 1u);

  // Manually add the commuted join to the same group.
  const GroupExpr& expr = *memo_->group(root).exprs[0];
  auto commuted = std::make_shared<JoinOp>(
      JoinKind::kInner, expr.op->children()[1], expr.op->children()[0],
      join->predicate());
  auto [group, added] = memo_->Insert(commuted, root);
  EXPECT_EQ(group, root);
  EXPECT_TRUE(added);
  EXPECT_EQ(memo_->group(root).exprs.size(), 2u);

  // Re-adding is a no-op.
  auto [group2, added2] = memo_->Insert(commuted, root);
  EXPECT_EQ(group2, root);
  EXPECT_FALSE(added2);
}

TEST_F(MemoTest, GroupPropsDerivedOnFirstInsert) {
  int g = memo_->InsertTree(*nation_);
  EXPECT_DOUBLE_EQ(memo_->group(g).props.cardinality, 25.0);
}

TEST_F(MemoTest, BindPatternSingleLevel) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  int root = memo_->InsertTree(*join);
  const GroupExpr& expr = *memo_->group(root).exprs[0];
  auto bindings = memo_->BindPattern(
      expr, *P::Join(JoinKind::kInner, P::Any(), P::Any()));
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_EQ(bindings[0]->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(bindings[0]->child(0)->kind(), LogicalOpKind::kGroupRef);
}

TEST_F(MemoTest, BindPatternKindMismatchReturnsEmpty) {
  int g = memo_->InsertTree(*nation_);
  const GroupExpr& expr = *memo_->group(g).exprs[0];
  EXPECT_TRUE(
      memo_->BindPattern(expr, *P::Op(LogicalOpKind::kSelect, {P::Any()}))
          .empty());
}

TEST_F(MemoTest, BindPatternTwoLevelEnumeratesChildExprs) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      join, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int root = memo_->InsertTree(*select);
  int join_group = memo_->group(root).exprs[0]->child_groups[0];

  // Add a second (commuted) join expression to the join group.
  const GroupExpr& join_expr = *memo_->group(join_group).exprs[0];
  auto commuted = std::make_shared<JoinOp>(JoinKind::kInner,
                                           join_expr.op->children()[1],
                                           join_expr.op->children()[0],
                                           nullptr);
  memo_->Insert(commuted, join_group);

  PatternNodePtr pattern = P::Op(
      LogicalOpKind::kSelect, {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  auto bindings =
      memo_->BindPattern(*memo_->group(root).exprs[0], *pattern);
  // Both join expressions produce a binding.
  EXPECT_EQ(bindings.size(), 2u);
}

TEST_F(MemoTest, GroupRefInsertReturnsItsGroup) {
  int g = memo_->InsertTree(*nation_);
  LogicalOpPtr ref = memo_->MakeGroupRef(g);
  auto [group, added] = memo_->Insert(ref, -1);
  EXPECT_EQ(group, g);
  EXPECT_FALSE(added);
}

TEST_F(MemoTest, FullMemoRefusesNewTreeWithoutCreatingGroups) {
  auto nation_select = [&](int64_t key) {
    return std::make_shared<SelectOp>(
        nation_,
        Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(key)));
  };
  // Get(nation) plus one Select per key fills the memo to its cap.
  int64_t key = 0;
  while (memo_->expr_count() < Memo::kMaxTotalExprs) {
    ASSERT_GE(memo_->InsertTree(*nation_select(key++)), 0);
  }
  ASSERT_FALSE(memo_->saturated());
  const int groups = memo_->group_count();

  // A stored tree still resolves to its group.
  EXPECT_GE(memo_->InsertTree(*nation_select(0)), 0);
  EXPECT_FALSE(memo_->saturated());

  // A new tree, and a rule output building a new subtree, are refused
  // whole: no group is left behind for any of their operators.
  auto nested = std::make_shared<SelectOp>(
      nation_select(key),
      Eq(Col(nation_->columns()[1], ValueType::kString), LitString("x")));
  EXPECT_EQ(memo_->InsertTree(*nested), -1);
  auto [group, added] = memo_->Insert(nested, /*target_group=*/0);
  EXPECT_EQ(group, 0);
  EXPECT_FALSE(added);
  EXPECT_EQ(memo_->group_count(), groups);
  EXPECT_EQ(memo_->expr_count(), Memo::kMaxTotalExprs);
  EXPECT_TRUE(memo_->saturated());
  EXPECT_TRUE(memo_->truncation().total_exprs);
  EXPECT_FALSE(memo_->truncation().group_exprs);
  EXPECT_FALSE(memo_->truncation().bindings);
}

TEST_F(MemoTest, BindPatternCutAtMaxBindingsIsReported) {
  // A Select over a group of Select expressions: one binding of
  // Select(Select(Any)) per child expression.
  auto filter = [&](const LogicalOpPtr& input, int64_t key) {
    return std::make_shared<SelectOp>(
        input, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(key)));
  };
  int root = memo_->InsertTree(*filter(filter(nation_, 0), 1000));
  const int child_group = memo_->group(root).exprs[0]->child_groups[0];
  const int nation_group = memo_->group(child_group).exprs[0]->child_groups[0];
  PatternNodePtr pattern = P::Op(
      LogicalOpKind::kSelect, {P::Op(LogicalOpKind::kSelect, {P::Any()})});

  // Exactly kMaxBindings matching child expressions: nothing is dropped.
  for (int64_t key = 1; key < Memo::kMaxBindings; ++key) {
    memo_->Insert(filter(memo_->MakeGroupRef(nation_group), key), child_group);
  }
  ASSERT_EQ(memo_->group(child_group).exprs.size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_EQ(memo_->BindPattern(*memo_->group(root).exprs[0], *pattern).size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_FALSE(memo_->truncation().bindings);

  // One more is cut, and the cut is recorded.
  memo_->Insert(filter(memo_->MakeGroupRef(nation_group), Memo::kMaxBindings),
                child_group);
  EXPECT_EQ(memo_->BindPattern(*memo_->group(root).exprs[0], *pattern).size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_TRUE(memo_->truncation().bindings);
  EXPECT_FALSE(memo_->saturated());
}

TEST_F(MemoTest, BindingInputsGrowOnlyWithTheGroupsAPatternReads) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      join, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int root = memo_->InsertTree(*select);
  const GroupExpr& select_expr = *memo_->group(root).exprs[0];
  const int join_group = select_expr.child_groups[0];
  PatternNodePtr two_level = P::Op(
      LogicalOpKind::kSelect, {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  PatternNodePtr single_level = P::Op(LogicalOpKind::kSelect, {P::Any()});
  PatternNodePtr other_root = P::Join(JoinKind::kInner, P::Any(), P::Any());

  const int64_t before = memo_->expr_count();
  EXPECT_FALSE(memo_->BindingInputsGrewSince(select_expr, *two_level, before));

  // A commuted join lands in the group the two-level pattern reads.
  const GroupExpr& join_expr = *memo_->group(join_group).exprs[0];
  memo_->Insert(std::make_shared<JoinOp>(JoinKind::kInner,
                                         join_expr.op->children()[1],
                                         join_expr.op->children()[0], nullptr),
                join_group);
  EXPECT_TRUE(memo_->BindingInputsGrewSince(select_expr, *two_level, before));
  EXPECT_FALSE(memo_->BindingInputsGrewSince(select_expr, *two_level,
                                             memo_->expr_count()));
  // A placeholder child reads no group, and a root the pattern does not
  // match reads nothing at all.
  EXPECT_FALSE(
      memo_->BindingInputsGrewSince(select_expr, *single_level, before));
  EXPECT_FALSE(memo_->BindingInputsGrewSince(select_expr, *other_root, before));
}

}  // namespace
}  // namespace qtf
