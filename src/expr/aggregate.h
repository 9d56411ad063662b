#ifndef QTF_EXPR_AGGREGATE_H_
#define QTF_EXPR_AGGREGATE_H_

#include <string>

#include "expr/expr.h"

namespace qtf {

/// Aggregate function kinds supported by GroupByAgg.
enum class AggKind {
  kCountStar = 0,  // COUNT(*)
  kCount,          // COUNT(expr), NULLs excluded
  kSum,
  kMin,
  kMax,
  kAvg,
};

const char* AggKindToSql(AggKind kind);

/// One aggregate invocation: function + argument (nullptr for COUNT(*)).
struct AggregateCall {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // nullptr iff kind == kCountStar.

  /// Result type implied by the function and argument type (COUNT -> INT64,
  /// AVG -> DOUBLE, SUM/MIN/MAX -> argument type).
  ValueType ResultType() const;

  /// "SUM(expr)" rendering.
  std::string ToString(const ColumnNameResolver* resolver) const;
};

/// Structural equality for memo deduplication.
bool AggregateCallEquals(const AggregateCall& a, const AggregateCall& b);

/// Platform-stable structural hash (StableExprHash-based); feeds
/// LogicalOp::LocalHash and TreeFingerprint.
uint64_t StableAggregateCallHash(const AggregateCall& call);

}  // namespace qtf

#endif  // QTF_EXPR_AGGREGATE_H_
