// Expression analysis: conjunct handling, column collection, substitution,
// null-rejection (the outer-join simplification precondition), structural
// equality/hash.

#include <gtest/gtest.h>

#include "expr/analysis.h"

namespace qtf {
namespace {

ExprPtr IntCol(ColumnId id) { return Col(id, ValueType::kInt64); }

TEST(ColumnsOfTest, CollectsAllReferences) {
  ExprPtr e = And(Eq(IntCol(1), IntCol(2)),
                  Cmp(CompareOp::kLt, Arith(ArithOp::kAdd, IntCol(3), LitInt(1)),
                      IntCol(1)));
  ColumnSet cols = ColumnsOf(*e);
  EXPECT_EQ(cols, (ColumnSet{1, 2, 3}));
}

TEST(ReferencesTest, OnlyAndAny) {
  ExprPtr e = Eq(IntCol(1), IntCol(2));
  EXPECT_TRUE(ReferencesOnly(*e, {1, 2, 3}));
  EXPECT_FALSE(ReferencesOnly(*e, {1}));
  EXPECT_TRUE(ReferencesAny(*e, {2, 9}));
  EXPECT_FALSE(ReferencesAny(*e, {9}));
}

TEST(ConjunctTest, SplitFlattensNestedAnds) {
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Eq(IntCol(2), LitInt(2));
  ExprPtr c = Eq(IntCol(3), LitInt(3));
  ExprPtr nested = And(And(a, b), c);
  std::vector<ExprPtr> conjuncts = SplitConjuncts(nested);
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(ConjunctTest, OrIsNotSplit) {
  ExprPtr e = Or(Eq(IntCol(1), LitInt(1)), Eq(IntCol(2), LitInt(2)));
  EXPECT_EQ(SplitConjuncts(e).size(), 1u);
}

TEST(ConjunctTest, NullPredicateSplitsToEmpty) {
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
  EXPECT_EQ(MakeConjunction({}), nullptr);
}

TEST(ConjunctTest, MakeConjunctionIsCanonical) {
  // Same conjunct set in any order must produce a structurally identical
  // expression (memo dedup depends on this).
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Cmp(CompareOp::kLt, IntCol(2), LitInt(5));
  ExprPtr c = IsNull(IntCol(3));
  ExprPtr e1 = MakeConjunction({a, b, c});
  ExprPtr e2 = MakeConjunction({c, a, b});
  ExprPtr e3 = MakeConjunction({b, c, a});
  EXPECT_TRUE(ExprEquals(*e1, *e2));
  EXPECT_TRUE(ExprEquals(*e1, *e3));
}

TEST(ConjunctTest, APairTakesTheOrderItHasInALongerList) {
  // Two conjuncts take a path of their own; it must order a pair as the
  // general path orders the same two inside a longer list.
  const std::vector<ExprPtr> conjuncts = {
      Eq(IntCol(1), LitInt(1)), Cmp(CompareOp::kLt, IntCol(2), LitInt(5)),
      IsNull(IntCol(3)), Eq(IntCol(4), IntCol(1))};
  const std::vector<ExprPtr> sorted =
      SplitConjuncts(MakeConjunction(conjuncts));
  ASSERT_EQ(sorted.size(), conjuncts.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t j = i + 1; j < sorted.size(); ++j) {
      const ExprPtr want = And(sorted[i], sorted[j]);
      EXPECT_TRUE(ExprEquals(*MakeConjunction({sorted[i], sorted[j]}), *want))
          << i << "," << j;
      EXPECT_TRUE(ExprEquals(*MakeConjunction({sorted[j], sorted[i]}), *want))
          << j << "," << i;
    }
  }
}

TEST(ConjunctTest, RoundTripSplitMake) {
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Eq(IntCol(2), LitInt(2));
  ExprPtr e = MakeConjunction({a, b});
  std::vector<ExprPtr> again = SplitConjuncts(e);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_TRUE(ExprEquals(*MakeConjunction(again), *e));
}

TEST(SubstituteTest, ReplacesMappedColumns) {
  std::map<ColumnId, ExprPtr> repl;
  repl[1] = Arith(ArithOp::kAdd, IntCol(5), LitInt(1));
  ExprPtr e = Eq(IntCol(1), IntCol(2));
  ExprPtr out = SubstituteColumns(e, repl);
  ColumnSet cols = ColumnsOf(*out);
  EXPECT_EQ(cols, (ColumnSet{5, 2}));
}

TEST(SubstituteTest, IdentityWhenNothingMapped) {
  ExprPtr e = And(Eq(IntCol(1), LitInt(3)), IsNull(IntCol(2)));
  ExprPtr out = SubstituteColumns(e, {});
  EXPECT_TRUE(ExprEquals(*e, *out));
}

TEST(SubstituteTest, RecursesThroughAllOperators) {
  std::map<ColumnId, ExprPtr> repl;
  repl[1] = IntCol(9);
  ExprPtr e = Or(Not(IsNull(IntCol(1))),
                 Cmp(CompareOp::kGt, Arith(ArithOp::kMul, IntCol(1), LitInt(2)),
                     LitInt(10)));
  ExprPtr out = SubstituteColumns(e, repl);
  EXPECT_EQ(ColumnsOf(*out), (ColumnSet{9}));
}

// ---- RejectsAllNull: the LojToJoin precondition ----

TEST(RejectsAllNullTest, ComparisonOnTargetColumnRejects) {
  ExprPtr e = Eq(IntCol(1), LitInt(5));
  EXPECT_TRUE(RejectsAllNull(*e, {1}));
  EXPECT_FALSE(RejectsAllNull(*e, {2}));
}

TEST(RejectsAllNullTest, ArithmeticIsStrict) {
  ExprPtr e = Cmp(CompareOp::kLt, Arith(ArithOp::kAdd, IntCol(1), LitInt(1)),
                  LitInt(10));
  EXPECT_TRUE(RejectsAllNull(*e, {1}));
}

TEST(RejectsAllNullTest, AndNeedsOneRejectingConjunct) {
  ExprPtr rejecting = Eq(IntCol(1), LitInt(5));
  ExprPtr other = Eq(IntCol(2), LitInt(5));
  EXPECT_TRUE(RejectsAllNull(*And(rejecting, other), {1}));
  EXPECT_TRUE(RejectsAllNull(*And(other, rejecting), {1}));
  EXPECT_FALSE(RejectsAllNull(*And(other, other), {1}));
}

TEST(RejectsAllNullTest, OrNeedsBothBranchesRejecting) {
  ExprPtr on1 = Eq(IntCol(1), LitInt(5));
  ExprPtr on2 = Eq(IntCol(2), LitInt(5));
  EXPECT_FALSE(RejectsAllNull(*Or(on1, on2), {1}));
  EXPECT_TRUE(RejectsAllNull(*Or(on1, on2), {1, 2}));
  EXPECT_TRUE(RejectsAllNull(
      *Or(on1, Cmp(CompareOp::kGt, IntCol(1), LitInt(0))), {1}));
}

TEST(RejectsAllNullTest, IsNullDoesNotReject) {
  // IS NULL is satisfied by the null-extended row — it must NOT count as
  // null-rejecting.
  EXPECT_FALSE(RejectsAllNull(*IsNull(IntCol(1)), {1}));
  EXPECT_FALSE(RejectsAllNull(*Not(IsNull(IntCol(1))), {1}));
}

TEST(RejectsAllNullTest, NotOverStrictComparisonRejects) {
  // NOT(c1 = 5) on NULL c1 evaluates NOT(NULL) = NULL -> rejected.
  EXPECT_TRUE(RejectsAllNull(*Not(Eq(IntCol(1), LitInt(5))), {1}));
}

TEST(RejectsAllNullTest, ConstantsNeverReject) {
  EXPECT_FALSE(RejectsAllNull(*Lit(Value::Bool(true)), {1}));
}

// ---- structural equality / hash ----

TEST(ExprEqualsTest, DistinguishesOpsAndConstants) {
  EXPECT_TRUE(ExprEquals(*Eq(IntCol(1), LitInt(5)), *Eq(IntCol(1), LitInt(5))));
  EXPECT_FALSE(
      ExprEquals(*Eq(IntCol(1), LitInt(5)), *Eq(IntCol(1), LitInt(6))));
  EXPECT_FALSE(ExprEquals(*Eq(IntCol(1), LitInt(5)),
                          *Cmp(CompareOp::kNe, IntCol(1), LitInt(5))));
  EXPECT_FALSE(ExprEquals(*Eq(IntCol(1), LitInt(5)), *IsNull(IntCol(1))));
  EXPECT_FALSE(ExprEquals(*Arith(ArithOp::kAdd, IntCol(1), LitInt(1)),
                          *Arith(ArithOp::kSub, IntCol(1), LitInt(1))));
}

TEST(ExprEqualsTest, NullConstantsCompareEqual) {
  EXPECT_TRUE(ExprEquals(*Lit(Value::Null(ValueType::kInt64)),
                         *Lit(Value::Null(ValueType::kInt64))));
  EXPECT_FALSE(ExprEquals(*Lit(Value::Null(ValueType::kInt64)),
                          *Lit(Value::Null(ValueType::kString))));
}

TEST(ExprHashTest, EqualExpressionsHashEqual) {
  ExprPtr a = And(Eq(IntCol(1), LitInt(5)), IsNull(IntCol(2)));
  ExprPtr b = And(Eq(IntCol(1), LitInt(5)), IsNull(IntCol(2)));
  EXPECT_EQ(ExprHash(*a), ExprHash(*b));
}

TEST(ExprHashTest, DifferentExpressionsUsuallyDiffer) {
  EXPECT_NE(ExprHash(*Eq(IntCol(1), LitInt(5))),
            ExprHash(*Eq(IntCol(2), LitInt(5))));
  EXPECT_NE(ExprHash(*Eq(IntCol(1), LitInt(5))),
            ExprHash(*Eq(IntCol(1), LitInt(7))));
}

}  // namespace
}  // namespace qtf
