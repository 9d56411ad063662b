#include "rules/rule_util.h"

namespace qtf {

LogicalProps BoundProps(const LogicalOp& op) { return DeriveTreeProps(op); }

LogicalOpPtr ProjectTo(LogicalOpPtr input, const std::vector<ColumnId>& cols,
                       const LogicalProps& props) {
  std::vector<ProjectItem> items;
  items.reserve(cols.size());
  for (ColumnId id : cols) {
    items.push_back(ProjectItem{Col(id, props.TypeOf(id)), id});
  }
  return std::make_shared<ProjectOp>(std::move(input), std::move(items));
}

void SplitPushable(const ExprPtr& predicate, const ColumnSet& allowed,
                   std::vector<ExprPtr>* pushable,
                   std::vector<ExprPtr>* remaining) {
  for (const ExprPtr& conjunct : SplitConjuncts(predicate)) {
    if (ReferencesOnly(*conjunct, allowed)) {
      pushable->push_back(conjunct);
    } else {
      remaining->push_back(conjunct);
    }
  }
}

std::map<ColumnId, ExprPtr> ComputedItemMap(const ProjectOp& project) {
  std::map<ColumnId, ExprPtr> out;
  for (const ProjectItem& item : project.items()) {
    if (item.expr->kind() != ExprKind::kColumnRef) {
      out[item.id] = item.expr;
    }
  }
  return out;
}

std::map<ColumnId, ExprPtr> UnionBranchMap(const UnionAllOp& u,
                                           size_t branch) {
  const LogicalOp& child = *u.child(branch);
  std::vector<ColumnId> cols = child.OutputColumns();
  LogicalProps props = BoundProps(child);
  std::map<ColumnId, ExprPtr> out;
  for (size_t i = 0; i < u.output_ids().size(); ++i) {
    out[u.output_ids()[i]] = Col(cols[i], props.TypeOf(cols[i]));
  }
  return out;
}

}  // namespace qtf
