#ifndef QTF_EXPR_ANALYSIS_H_
#define QTF_EXPR_ANALYSIS_H_

#include <map>
#include <set>
#include <vector>

#include "expr/expr.h"

namespace qtf {

/// Set of column ids; used throughout the optimizer for property reasoning.
using ColumnSet = std::set<ColumnId>;

/// Adds every column referenced by `expr` to `out`.
void CollectColumns(const Expr& expr, ColumnSet* out);

/// Convenience wrapper returning the referenced-column set.
ColumnSet ColumnsOf(const Expr& expr);

/// True iff `allowed(id)` holds for every column id `expr` references;
/// walks the expression without collecting its columns.
template <typename Allowed>
bool ReferencesOnlyWhere(const Expr& expr, const Allowed& allowed) {
  if (expr.kind() == ExprKind::kColumnRef) {
    return allowed(static_cast<const ColumnRefExpr&>(expr).id());
  }
  for (const ExprPtr& child : expr.children()) {
    if (!ReferencesOnlyWhere(*child, allowed)) return false;
  }
  return true;
}

/// True iff every column referenced by `expr` is contained in `allowed`.
bool ReferencesOnly(const Expr& expr, const ColumnSet& allowed);

/// True iff `expr` references at least one column in `cols`.
bool ReferencesAny(const Expr& expr, const ColumnSet& cols);

/// Splits a predicate into its top-level conjuncts
/// ((a AND b) AND c -> [a, b, c]).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Rebuilds a conjunction from `conjuncts`; returns nullptr for an empty
/// list (meaning TRUE).
ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts);

/// Null-rejection test used by outer-join simplification (LojToJoin and the
/// join/outer-join associativity rules).
///
/// Returns true iff `expr` is guaranteed to evaluate to something other than
/// TRUE on any row in which *all* columns of `cols` are NULL — i.e. the
/// predicate rejects the null-extended rows an outer join produces. The
/// analysis is conservative (may return false for predicates that do
/// reject).
bool RejectsAllNull(const Expr& expr, const ColumnSet& cols);

/// Rewrites `expr`, replacing every reference to a column in `replacements`
/// with the mapped expression. Unmapped references are kept. Used by rules
/// that move predicates across projections/unions.
ExprPtr SubstituteColumns(const ExprPtr& expr,
                          const std::map<ColumnId, ExprPtr>& replacements);

/// Structural equality of expressions (same shape, ops, column ids and
/// constants). Used for plan/tree comparison and memo deduplication.
bool ExprEquals(const Expr& a, const Expr& b);

/// Structural hash consistent with ExprEquals. Built on std::hash via
/// Value::Hash, so values are standard-library-specific. This hash defines
/// MakeConjunction's canonical conjunct order; keep using it there.
size_t ExprHash(const Expr& expr);

/// Platform-stable structural hash consistent with ExprEquals (explicit
/// mixing, Value::StableHash for constants). Feeds LogicalOp::LocalHash and
/// TreeFingerprint so cache keys and the golden fingerprint tests don't
/// depend on the standard library (docs/architecture.md).
uint64_t StableExprHash(const Expr& expr);

}  // namespace qtf

#endif  // QTF_EXPR_ANALYSIS_H_
