#include "expr/analysis.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace qtf {

void CollectColumns(const Expr& expr, ColumnSet* out) {
  if (expr.kind() == ExprKind::kColumnRef) {
    out->insert(static_cast<const ColumnRefExpr&>(expr).id());
    return;
  }
  for (const ExprPtr& child : expr.children()) {
    CollectColumns(*child, out);
  }
}

ColumnSet ColumnsOf(const Expr& expr) {
  ColumnSet out;
  CollectColumns(expr, &out);
  return out;
}

bool ReferencesOnly(const Expr& expr, const ColumnSet& allowed) {
  return ReferencesOnlyWhere(
      expr, [&](ColumnId id) { return allowed.count(id) > 0; });
}

bool ReferencesAny(const Expr& expr, const ColumnSet& cols) {
  ColumnSet referenced = ColumnsOf(expr);
  for (ColumnId id : referenced) {
    if (cols.count(id) > 0) return true;
  }
  return false;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind() == ExprKind::kAnd) {
    for (const ExprPtr& child : expr->children()) {
      std::vector<ExprPtr> sub = SplitConjuncts(child);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(expr);
  return out;
}

namespace {

/// The canonical conjunct order: by ExprHash, ties broken by rendering.
bool ConjunctBefore(size_t a_hash, const Expr& a, size_t b_hash,
                    const Expr& b) {
  if (a_hash != b_hash) return a_hash < b_hash;
  return a.ToString(nullptr) < b.ToString(nullptr);
}

}  // namespace

ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return conjuncts[0];
  // Canonical order: different rule-derivation paths that assemble the same
  // conjunct set must produce structurally identical predicates, or memo
  // deduplication breaks down and the search space explodes.
  if (conjuncts.size() == 2) {
    // The most common case: one comparison, swapping only a pair that is
    // strictly out of order, as the sort below does.
    ExprPtr& a = conjuncts[0];
    ExprPtr& b = conjuncts[1];
    if (ConjunctBefore(ExprHash(*b), *b, ExprHash(*a), *a)) std::swap(a, b);
    return And(std::move(a), std::move(b));
  }
  // Each conjunct is hashed once, not at every comparison.
  std::vector<std::pair<size_t, ExprPtr>> keyed;
  keyed.reserve(conjuncts.size());
  for (ExprPtr& conjunct : conjuncts) {
    const size_t hash = ExprHash(*conjunct);
    keyed.emplace_back(hash, std::move(conjunct));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<size_t, ExprPtr>& a,
               const std::pair<size_t, ExprPtr>& b) {
              return ConjunctBefore(a.first, *a.second, b.first, *b.second);
            });
  ExprPtr result = keyed[0].second;
  for (size_t i = 1; i < keyed.size(); ++i) {
    result = And(result, keyed[i].second);
  }
  return result;
}

namespace {

/// True iff `expr` is guaranteed NULL on rows where all columns in `cols`
/// are NULL. Holds for any NULL-strict operator tree that touches at least
/// one column of `cols` and no operator that can absorb NULL (AND/OR/NOT
/// handled by the caller; IS NULL is not strict).
bool StrictNullWhenAllNull(const Expr& expr, const ColumnSet& cols) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return cols.count(static_cast<const ColumnRefExpr&>(expr).id()) > 0;
    case ExprKind::kConstant:
      return false;
    case ExprKind::kArithmetic:
      return StrictNullWhenAllNull(*expr.children()[0], cols) ||
             StrictNullWhenAllNull(*expr.children()[1], cols);
    case ExprKind::kComparison:
      return StrictNullWhenAllNull(*expr.children()[0], cols) ||
             StrictNullWhenAllNull(*expr.children()[1], cols);
    default:
      // AND/OR/NOT/IS NULL can produce non-NULL from NULL inputs; be
      // conservative.
      return false;
  }
}

}  // namespace

bool RejectsAllNull(const Expr& expr, const ColumnSet& cols) {
  switch (expr.kind()) {
    case ExprKind::kComparison:
      // A comparison yields NULL (hence not TRUE) if either side is NULL.
      return StrictNullWhenAllNull(*expr.children()[0], cols) ||
             StrictNullWhenAllNull(*expr.children()[1], cols);
    case ExprKind::kAnd:
      // One non-TRUE conjunct makes the conjunction non-TRUE.
      return RejectsAllNull(*expr.children()[0], cols) ||
             RejectsAllNull(*expr.children()[1], cols);
    case ExprKind::kOr:
      // Both branches must be non-TRUE.
      return RejectsAllNull(*expr.children()[0], cols) &&
             RejectsAllNull(*expr.children()[1], cols);
    case ExprKind::kNot:
      // NOT(x) is non-TRUE iff x is TRUE or NULL; guaranteed when the
      // operand is strict-NULL over cols (NOT NULL = NULL).
      return StrictNullWhenAllNull(*expr.children()[0], cols);
    default:
      return false;
  }
}


ExprPtr SubstituteColumns(const ExprPtr& expr,
                          const std::map<ColumnId, ExprPtr>& replacements) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      ColumnId id = static_cast<const ColumnRefExpr&>(*expr).id();
      auto it = replacements.find(id);
      return it != replacements.end() ? it->second : expr;
    }
    case ExprKind::kConstant:
      return expr;
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(*expr);
      return Cmp(cmp.op(), SubstituteColumns(cmp.left(), replacements),
                 SubstituteColumns(cmp.right(), replacements));
    }
    case ExprKind::kAnd:
      return And(SubstituteColumns(expr->children()[0], replacements),
                 SubstituteColumns(expr->children()[1], replacements));
    case ExprKind::kOr:
      return Or(SubstituteColumns(expr->children()[0], replacements),
                SubstituteColumns(expr->children()[1], replacements));
    case ExprKind::kNot:
      return Not(SubstituteColumns(expr->children()[0], replacements));
    case ExprKind::kArithmetic: {
      const auto& arith = static_cast<const ArithmeticExpr&>(*expr);
      return Arith(arith.op(),
                   SubstituteColumns(expr->children()[0], replacements),
                   SubstituteColumns(expr->children()[1], replacements));
    }
    case ExprKind::kIsNull:
      return IsNull(SubstituteColumns(expr->children()[0], replacements));
  }
  QTF_CHECK(false) << "unknown expression kind";
  return expr;
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(a).id() ==
             static_cast<const ColumnRefExpr&>(b).id();
    case ExprKind::kConstant: {
      const Value& va = static_cast<const ConstantExpr&>(a).value();
      const Value& vb = static_cast<const ConstantExpr&>(b).value();
      if (va.type() != vb.type()) return false;
      if (va.is_null() != vb.is_null()) return false;
      return va.is_null() || va.Compare(vb) == 0;
    }
    case ExprKind::kComparison:
      if (static_cast<const ComparisonExpr&>(a).op() !=
          static_cast<const ComparisonExpr&>(b).op()) {
        return false;
      }
      break;
    case ExprKind::kArithmetic:
      if (static_cast<const ArithmeticExpr&>(a).op() !=
          static_cast<const ArithmeticExpr&>(b).op()) {
        return false;
      }
      break;
    default:
      break;
  }
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!ExprEquals(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

size_t ExprHash(const Expr& expr) {
  size_t h = static_cast<size_t>(expr.kind()) * 0x9e3779b97f4a7c15ULL;
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      h ^= static_cast<size_t>(static_cast<const ColumnRefExpr&>(expr).id()) +
           0x1234567;
      break;
    case ExprKind::kConstant:
      h ^= static_cast<const ConstantExpr&>(expr).value().Hash();
      break;
    case ExprKind::kComparison:
      h ^= static_cast<size_t>(static_cast<const ComparisonExpr&>(expr).op())
           << 8;
      break;
    case ExprKind::kArithmetic:
      h ^= static_cast<size_t>(static_cast<const ArithmeticExpr&>(expr).op())
           << 16;
      break;
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    h = h * 1099511628211ULL + ExprHash(*child);
  }
  return h;
}

uint64_t StableExprHash(const Expr& expr) {
  uint64_t h = Mix64(static_cast<uint64_t>(expr.kind()) + 0xe1234);
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      h = HashCombine(
          h, static_cast<uint64_t>(static_cast<const ColumnRefExpr&>(expr).id()));
      break;
    case ExprKind::kConstant:
      h = HashCombine(h,
                      static_cast<const ConstantExpr&>(expr).value().StableHash());
      break;
    case ExprKind::kComparison:
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<const ComparisonExpr&>(expr).op()));
      break;
    case ExprKind::kArithmetic:
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<const ArithmeticExpr&>(expr).op()));
      break;
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    h = HashCombine(h, StableExprHash(*child));
  }
  return h;
}

}  // namespace qtf
