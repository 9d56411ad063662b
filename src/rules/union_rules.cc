#include "rules/exploration_rules.h"
#include "rules/rule_util.h"

namespace qtf {
namespace {

using P = PatternNode;

/// project(X unionall Y) -> project_l(X) unionall project_r(Y), rewriting
/// item expressions in terms of each side's columns. Computed item ids are
/// reused in both branches (each branch is a separate scope) and become the
/// new union's output ids.
class ProjectPushBelowUnionAll final : public ExplorationRule {
 public:
  ProjectPushBelowUnionAll()
      : ExplorationRule("ProjectPushBelowUnionAll",
                        P::Op(LogicalOpKind::kProject,
                              {P::Op(LogicalOpKind::kUnionAll,
                                     {P::Any(), P::Any()})})) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    const auto& project = static_cast<const ProjectOp&>(bound);
    const auto& u = static_cast<const UnionAllOp&>(*project.child(0));
    const std::map<ColumnId, ExprPtr> to_left = UnionBranchMap(u, 0);
    const std::map<ColumnId, ExprPtr> to_right = UnionBranchMap(u, 1);

    std::vector<ProjectItem> left_items, right_items;
    std::vector<ColumnId> new_output_ids;
    for (const ProjectItem& item : project.items()) {
      ExprPtr le = SubstituteColumns(item.expr, to_left);
      ExprPtr re = SubstituteColumns(item.expr, to_right);
      ColumnId lid = le->kind() == ExprKind::kColumnRef
                         ? static_cast<const ColumnRefExpr&>(*le).id()
                         : item.id;
      ColumnId rid = re->kind() == ExprKind::kColumnRef
                         ? static_cast<const ColumnRefExpr&>(*re).id()
                         : item.id;
      left_items.push_back(ProjectItem{std::move(le), lid});
      right_items.push_back(ProjectItem{std::move(re), rid});
      new_output_ids.push_back(item.id);
    }
    LogicalOpPtr left =
        std::make_shared<ProjectOp>(u.child(0), std::move(left_items));
    LogicalOpPtr right =
        std::make_shared<ProjectOp>(u.child(1), std::move(right_items));
    out->push_back(std::make_shared<UnionAllOp>(
        std::move(left), std::move(right), std::move(new_output_ids)));
  }
};

}  // namespace

std::unique_ptr<Rule> MakeProjectPushBelowUnionAll() {
  return std::make_unique<ProjectPushBelowUnionAll>();
}

}  // namespace qtf
