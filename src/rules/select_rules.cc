#include "rules/exploration_rules.h"
#include "rules/rule_util.h"

namespace qtf {
namespace {

using P = PatternNode;

/// select[p](project(A)) -> project(select[p'](A)), with computed columns
/// expanded inside p.
class SelectPushBelowProject final : public ExplorationRule {
 public:
  SelectPushBelowProject()
      : ExplorationRule("SelectPushBelowProject",
                        P::Op(LogicalOpKind::kSelect,
                              {P::Op(LogicalOpKind::kProject, {P::Any()})})) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    const auto& select = static_cast<const SelectOp&>(bound);
    const auto& project = static_cast<const ProjectOp&>(*select.child(0));
    std::map<ColumnId, ExprPtr> computed = ComputedItemMap(project);
    ExprPtr pushed = SubstituteColumns(select.predicate(), computed);
    LogicalOpPtr filtered =
        std::make_shared<SelectOp>(project.child(0), std::move(pushed));
    out->push_back(
        std::make_shared<ProjectOp>(std::move(filtered), project.items()));
  }
};

/// select[p](groupby[G,A](X)) -> groupby[G,A](select[p'](X)) for conjuncts
/// over grouping columns only (whole groups pass or fail together).
class SelectPushBelowGroupBy final : public ExplorationRule {
 public:
  SelectPushBelowGroupBy()
      : ExplorationRule(
            "SelectPushBelowGroupBy",
            P::Op(LogicalOpKind::kSelect,
                  {P::Op(LogicalOpKind::kGroupByAgg, {P::Any()})})) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    const auto& select = static_cast<const SelectOp&>(bound);
    const auto& agg = static_cast<const GroupByAggOp&>(*select.child(0));
    ColumnSet group_cols(agg.group_cols().begin(), agg.group_cols().end());
    std::vector<ExprPtr> pushable, remaining;
    SplitPushable(select.predicate(), group_cols, &pushable, &remaining);
    if (pushable.empty()) return;
    LogicalOpPtr filtered =
        std::make_shared<SelectOp>(agg.child(0), MakeConjunction(pushable));
    LogicalOpPtr new_agg = std::make_shared<GroupByAggOp>(
        std::move(filtered), agg.group_cols(), agg.aggregates());
    if (remaining.empty()) {
      out->push_back(std::move(new_agg));
    } else {
      out->push_back(std::make_shared<SelectOp>(std::move(new_agg),
                                                MakeConjunction(remaining)));
    }
  }
};

/// select[p](X unionall Y) -> select[pX](X) unionall select[pY](Y), with the
/// union's output ids substituted by each side's input ids.
class SelectPushBelowUnionAll final : public ExplorationRule {
 public:
  SelectPushBelowUnionAll()
      : ExplorationRule("SelectPushBelowUnionAll",
                        P::Op(LogicalOpKind::kSelect,
                              {P::Op(LogicalOpKind::kUnionAll,
                                     {P::Any(), P::Any()})})) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    const auto& select = static_cast<const SelectOp&>(bound);
    const auto& u = static_cast<const UnionAllOp&>(*select.child(0));
    LogicalOpPtr left = std::make_shared<SelectOp>(
        u.child(0),
        SubstituteColumns(select.predicate(), UnionBranchMap(u, 0)));
    LogicalOpPtr right = std::make_shared<SelectOp>(
        u.child(1),
        SubstituteColumns(select.predicate(), UnionBranchMap(u, 1)));
    out->push_back(std::make_shared<UnionAllOp>(std::move(left),
                                                std::move(right),
                                                u.output_ids()));
  }
};

/// project(project(X)) -> project(X) with inner computed columns expanded.
class ProjectMerge final : public ExplorationRule {
 public:
  ProjectMerge()
      : ExplorationRule("ProjectMerge",
                        P::Op(LogicalOpKind::kProject,
                              {P::Op(LogicalOpKind::kProject, {P::Any()})})) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    const auto& outer = static_cast<const ProjectOp&>(bound);
    const auto& inner = static_cast<const ProjectOp&>(*outer.child(0));
    std::map<ColumnId, ExprPtr> computed = ComputedItemMap(inner);
    std::vector<ProjectItem> items;
    items.reserve(outer.items().size());
    for (const ProjectItem& item : outer.items()) {
      items.push_back(
          ProjectItem{SubstituteColumns(item.expr, computed), item.id});
    }
    out->push_back(
        std::make_shared<ProjectOp>(inner.child(0), std::move(items)));
  }
};

}  // namespace

std::unique_ptr<Rule> MakeSelectPushBelowProject() {
  return std::make_unique<SelectPushBelowProject>();
}
std::unique_ptr<Rule> MakeSelectPushBelowGroupBy() {
  return std::make_unique<SelectPushBelowGroupBy>();
}
std::unique_ptr<Rule> MakeSelectPushBelowUnionAll() {
  return std::make_unique<SelectPushBelowUnionAll>();
}
std::unique_ptr<Rule> MakeProjectMerge() {
  return std::make_unique<ProjectMerge>();
}

}  // namespace qtf
