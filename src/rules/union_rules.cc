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
    std::vector<ColumnId> lcols = u.child(0)->OutputColumns();
    std::vector<ColumnId> rcols = u.child(1)->OutputColumns();
    LogicalProps lprops = BoundProps(*u.child(0));
    LogicalProps rprops = BoundProps(*u.child(1));
    std::map<ColumnId, ExprPtr> to_left, to_right;
    for (size_t i = 0; i < u.output_ids().size(); ++i) {
      to_left[u.output_ids()[i]] = Col(lcols[i], lprops.TypeOf(lcols[i]));
      to_right[u.output_ids()[i]] = Col(rcols[i], rprops.TypeOf(rcols[i]));
    }

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
