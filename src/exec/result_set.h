#ifndef QTF_EXEC_RESULT_SET_H_
#define QTF_EXEC_RESULT_SET_H_

#include <vector>

#include "expr/expr.h"
#include "types/value.h"

namespace qtf {

/// Materialized query result: output column ids plus rows (bag semantics).
struct ResultSet {
  std::vector<ColumnId> columns;
  std::vector<Row> rows;

  int64_t row_count() const { return static_cast<int64_t>(rows.size()); }
};

/// Bag (multiset) equality of two results, used for rule-correctness
/// validation: both plans derive from the same query, so column ids and
/// order must match; row order is ignored.
///
/// Doubles are compared with a small relative tolerance because different
/// (equally correct) plans may sum floating-point values in different
/// orders. NULLs compare equal to NULLs only.
bool ResultBagEquals(const ResultSet& a, const ResultSet& b);

}  // namespace qtf

#endif  // QTF_EXEC_RESULT_SET_H_
