#ifndef QTF_RULES_RULE_UTIL_H_
#define QTF_RULES_RULE_UTIL_H_

#include <vector>

#include "logical/ops.h"
#include "logical/props.h"

namespace qtf {

/// Logical properties of a node inside a bound tree: GroupRef leaves carry
/// their group's cached properties; interior pattern operators are derived
/// on the fly (bound trees are shallow, so this is cheap).
LogicalProps BoundProps(const LogicalOp& op);

/// Pass-through projection of `input` to `cols` (in order). `props` must
/// describe an output superset of `cols` and supplies their types.
LogicalOpPtr ProjectTo(LogicalOpPtr input, const std::vector<ColumnId>& cols,
                       const LogicalProps& props);

/// Splits the conjuncts of `predicate` into those referencing only columns
/// in `allowed` and the rest.
void SplitPushable(const ExprPtr& predicate, const ColumnSet& allowed,
                   std::vector<ExprPtr>* pushable,
                   std::vector<ExprPtr>* remaining);

/// Map from computed project-item ids to their defining expressions
/// (pass-through items are omitted — they are identity).
std::map<ColumnId, ExprPtr> ComputedItemMap(const ProjectOp& project);

/// Map from `u`'s output ids to the columns of its child `branch` (0 or 1)
/// they come from, typed by that child's bound properties. Pairs them by
/// position in the child's OutputColumns(), which is wrong once
/// JoinCommutativity has reordered the child (ROADMAP item 1).
std::map<ColumnId, ExprPtr> UnionBranchMap(const UnionAllOp& u,
                                           size_t branch);

}  // namespace qtf

#endif  // QTF_RULES_RULE_UTIL_H_
