// Memo structure: insertion, deduplication, group creation, pattern
// binding (full and since a memo version).

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

  /// Every binding of `expr` against `pattern` (since < 0).
  std::vector<LogicalOpPtr> BindAll(const GroupExpr& expr,
                                    const PatternNode& pattern) {
    std::vector<LogicalOpPtr> out;
    memo_->BindPattern(expr, pattern, /*since=*/-1, &out);
    return out;
  }

  LogicalOpPtr NationFilter(const LogicalOpPtr& input, int64_t key) {
    return std::make_shared<SelectOp>(
        input, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(key)));
  }
  LogicalOpPtr RegionFilter(const LogicalOpPtr& input, int64_t key) {
    return std::make_shared<SelectOp>(
        input, Eq(Col(region_->columns()[0], ValueType::kInt64), LitInt(key)));
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
  auto bindings =
      BindAll(expr, *P::Join(JoinKind::kInner, P::Any(), P::Any()));
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_EQ(bindings[0]->kind(), LogicalOpKind::kJoin);
  EXPECT_EQ(bindings[0]->child(0)->kind(), LogicalOpKind::kGroupRef);
}

TEST_F(MemoTest, BindPatternKindMismatchReturnsEmpty) {
  int g = memo_->InsertTree(*nation_);
  const GroupExpr& expr = *memo_->group(g).exprs[0];
  EXPECT_TRUE(
      BindAll(expr, *P::Op(LogicalOpKind::kSelect, {P::Any()})).empty());
}

TEST_F(MemoTest, BindPatternTwoLevelEnumeratesChildExprs) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      join, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int root = memo_->InsertTree(*select);
  int join_group = memo_->group(root).exprs[0]->child_group(0);

  // Add a second (commuted) join expression to the join group.
  const GroupExpr& join_expr = *memo_->group(join_group).exprs[0];
  auto commuted = std::make_shared<JoinOp>(JoinKind::kInner,
                                           join_expr.op->children()[1],
                                           join_expr.op->children()[0],
                                           nullptr);
  memo_->Insert(commuted, join_group);

  PatternNodePtr pattern = P::Op(
      LogicalOpKind::kSelect, {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  auto bindings = BindAll(*memo_->group(root).exprs[0], *pattern);
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
  const int child_group = memo_->group(root).exprs[0]->child_group(0);
  const int nation_group = memo_->group(child_group).exprs[0]->child_group(0);
  PatternNodePtr pattern = P::Op(
      LogicalOpKind::kSelect, {P::Op(LogicalOpKind::kSelect, {P::Any()})});

  // Exactly kMaxBindings matching child expressions: nothing is dropped.
  for (int64_t key = 1; key < Memo::kMaxBindings; ++key) {
    memo_->Insert(filter(memo_->MakeGroupRef(nation_group), key), child_group);
  }
  ASSERT_EQ(memo_->group(child_group).exprs.size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_EQ(BindAll(*memo_->group(root).exprs[0], *pattern).size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_FALSE(memo_->truncation().bindings);

  // One more is cut, and the cut is recorded.
  memo_->Insert(filter(memo_->MakeGroupRef(nation_group), Memo::kMaxBindings),
                child_group);
  EXPECT_EQ(BindAll(*memo_->group(root).exprs[0], *pattern).size(),
            static_cast<size_t>(Memo::kMaxBindings));
  EXPECT_TRUE(memo_->truncation().bindings);
  EXPECT_FALSE(memo_->saturated());
}

TEST_F(MemoTest, BindPatternSinceBindsOnlyCombinationsHoldingANewerExpr) {
  // Join(Select(nation), Select(region)) against
  // Join(Select(Any), Select(Any)): one combination per pair of Select
  // expressions in the two child groups.
  int root = memo_->InsertTree(*std::make_shared<JoinOp>(
      JoinKind::kInner, NationFilter(nation_, 0), RegionFilter(region_, 0),
      nullptr));
  const GroupExpr& join_expr = *memo_->group(root).exprs[0];
  const int left = join_expr.child_group(0);
  const int right = join_expr.child_group(1);
  PatternNodePtr pattern = P::Join(JoinKind::kInner,
                                   P::Op(LogicalOpKind::kSelect, {P::Any()}),
                                   P::Op(LogicalOpKind::kSelect, {P::Any()}));
  std::vector<LogicalOpPtr> first;
  ASSERT_TRUE(memo_->BindPattern(join_expr, *pattern, -1, &first));
  ASSERT_EQ(first.size(), 1u);
  const int64_t since = memo_->expr_count();

  // Nothing newer: the combination exists but is not built again.
  std::vector<LogicalOpPtr> none;
  EXPECT_TRUE(memo_->BindPattern(join_expr, *pattern, since, &none));
  EXPECT_TRUE(none.empty());

  // One newer Select on each side.
  const LogicalOpPtr nation_ref =
      memo_->MakeGroupRef(memo_->group(left).exprs[0]->child_group(0));
  const LogicalOpPtr region_ref =
      memo_->MakeGroupRef(memo_->group(right).exprs[0]->child_group(0));
  ASSERT_TRUE(memo_->Insert(NationFilter(nation_ref, 1), left).second);
  ASSERT_TRUE(memo_->Insert(RegionFilter(region_ref, 1), right).second);
  const LogicalOp* a0 = memo_->group(left).exprs[0]->op.get();
  const LogicalOp* a1 = memo_->group(left).exprs[1]->op.get();
  const LogicalOp* b0 = memo_->group(right).exprs[0]->op.get();
  const LogicalOp* b1 = memo_->group(right).exprs[1]->op.get();

  // Enumeration order is (a0,b0) (a0,b1) (a1,b0) (a1,b1); all but the
  // first hold a newer expression.
  std::vector<LogicalOpPtr> rerun;
  EXPECT_TRUE(memo_->BindPattern(join_expr, *pattern, since, &rerun));
  const std::vector<std::pair<const LogicalOp*, const LogicalOp*>> want = {
      {a0, b1}, {a1, b0}, {a1, b1}};
  ASSERT_EQ(rerun.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rerun[i]->child(0).get(), want[i].first) << "binding " << i;
    EXPECT_EQ(rerun[i]->child(1).get(), want[i].second) << "binding " << i;
  }
  // The same combinations, in the same order, as in a full rebind.
  const std::vector<LogicalOpPtr> all = BindAll(join_expr, *pattern);
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(all[i + 1]->child(0).get(), rerun[i]->child(0).get());
    EXPECT_EQ(all[i + 1]->child(1).get(), rerun[i]->child(1).get());
  }
  EXPECT_FALSE(memo_->truncation().bindings);
}

TEST_F(MemoTest, BindPatternSkippedCombinationsStillCountTowardTheCut) {
  // kMaxBindings old Selects on the right, one on the left: the old
  // combinations fill the cap exactly.
  int root = memo_->InsertTree(*std::make_shared<JoinOp>(
      JoinKind::kInner, NationFilter(nation_, 0), RegionFilter(region_, 0),
      nullptr));
  const GroupExpr& join_expr = *memo_->group(root).exprs[0];
  const int left = join_expr.child_group(0);
  const int right = join_expr.child_group(1);
  const LogicalOpPtr nation_ref =
      memo_->MakeGroupRef(memo_->group(left).exprs[0]->child_group(0));
  const LogicalOpPtr region_ref =
      memo_->MakeGroupRef(memo_->group(right).exprs[0]->child_group(0));
  for (int64_t key = 1; key < Memo::kMaxBindings; ++key) {
    memo_->Insert(RegionFilter(region_ref, key), right);
  }
  ASSERT_EQ(memo_->group(right).exprs.size(),
            static_cast<size_t>(Memo::kMaxBindings));
  PatternNodePtr pattern = P::Join(JoinKind::kInner,
                                   P::Op(LogicalOpKind::kSelect, {P::Any()}),
                                   P::Op(LogicalOpKind::kSelect, {P::Any()}));
  const int64_t since = memo_->expr_count();

  // A newer Select on the left: its combinations all come after the
  // kMaxBindings old ones, so each is cut although no old one is built.
  ASSERT_TRUE(memo_->Insert(NationFilter(nation_ref, 1), left).second);
  std::vector<LogicalOpPtr> rerun;
  EXPECT_TRUE(memo_->BindPattern(join_expr, *pattern, since, &rerun));
  EXPECT_TRUE(rerun.empty());
  EXPECT_TRUE(memo_->truncation().bindings);
  EXPECT_EQ(BindAll(join_expr, *pattern).size(),
            static_cast<size_t>(Memo::kMaxBindings));
}

TEST_F(MemoTest, BindPatternDeeperChildPatternRebindsEverything) {
  // Select(Select(Select(nation))) against Select(Select(Select(Any))): the
  // root's child position holds a deeper pattern, whose nested bindings
  // (one per expression of the grandchild group) all count as newer.
  int root = memo_->InsertTree(
      *NationFilter(NationFilter(NationFilter(nation_, 0), 1), 2));
  const GroupExpr& root_expr = *memo_->group(root).exprs[0];
  const int middle = root_expr.child_group(0);
  const int bottom = memo_->group(middle).exprs[0]->child_group(0);
  const int nation_group = memo_->group(bottom).exprs[0]->child_group(0);
  PatternNodePtr pattern = P::Op(
      LogicalOpKind::kSelect,
      {P::Op(LogicalOpKind::kSelect,
             {P::Op(LogicalOpKind::kSelect, {P::Any()})})});
  ASSERT_EQ(BindAll(root_expr, *pattern).size(), 1u);
  const int64_t since = memo_->expr_count();

  // Nothing stored since, yet the nested binding is bound again.
  std::vector<LogicalOpPtr> unchanged;
  EXPECT_TRUE(memo_->BindPattern(root_expr, *pattern, since, &unchanged));
  EXPECT_EQ(unchanged.size(), 1u);

  // A newer grandchild expression: the rerun binds what a full bind does,
  // in the same order.
  ASSERT_TRUE(memo_->Insert(NationFilter(memo_->MakeGroupRef(nation_group), 3),
                            bottom)
                  .second);
  std::vector<LogicalOpPtr> rerun;
  EXPECT_TRUE(memo_->BindPattern(root_expr, *pattern, since, &rerun));
  const std::vector<LogicalOpPtr> all = BindAll(root_expr, *pattern);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(rerun.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(LogicalTreeEquals(*rerun[i], *all[i])) << "binding " << i;
    EXPECT_EQ(rerun[i]->child(0)->child(0).get(),
              memo_->group(bottom).exprs[i]->op.get());
  }
}

TEST_F(MemoTest, BindingInputsGrowOnlyWithTheGroupsAPatternReads) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      join, Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(1)));
  int root = memo_->InsertTree(*select);
  const GroupExpr& select_expr = *memo_->group(root).exprs[0];
  const int join_group = select_expr.child_group(0);
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
