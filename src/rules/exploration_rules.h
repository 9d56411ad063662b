#ifndef QTF_RULES_EXPLORATION_RULES_H_
#define QTF_RULES_EXPLORATION_RULES_H_

#include <memory>

#include "optimizer/rule.h"

namespace qtf {

// The logical transformation rules written in C++ (see DESIGN.md for the
// semantics and preconditions of each). Factories return fresh rule
// instances for registration with a RuleRegistry. The other 15 of the 30
// logical rules are defined only in rules/dsl/{join,select,union}_rules.qtr;
// MakeDefaultRuleRegistry (default_rules.h) compiles them from text
// embedded at build time.

// Select and project placement (select_rules.cc).
std::unique_ptr<Rule> MakeSelectPushBelowProject();
std::unique_ptr<Rule> MakeSelectPushBelowGroupBy();
std::unique_ptr<Rule> MakeSelectPushBelowUnionAll();
std::unique_ptr<Rule> MakeProjectMerge();

// Aggregation / distinct rules (agg_rules.cc).
std::unique_ptr<Rule> MakeGroupByPushBelowJoinLeft();
std::unique_ptr<Rule> MakeGroupByPullAboveJoinLeft();
std::unique_ptr<Rule> MakeGroupByToDistinct();
std::unique_ptr<Rule> MakeDistinctToGroupBy();
std::unique_ptr<Rule> MakeGroupByOnKeyElimination();
std::unique_ptr<Rule> MakeDistinctElimination();

// Semi/anti-join rules (semijoin_rules.cc).
std::unique_ptr<Rule> MakeSemiJoinToJoinDistinct();
std::unique_ptr<Rule> MakeJoinToSemiJoin();
std::unique_ptr<Rule> MakeAntiToLojNullFilter();
std::unique_ptr<Rule> MakeSemiJoinCommuteSelect();

// Union rules (union_rules.cc).
std::unique_ptr<Rule> MakeProjectPushBelowUnionAll();

}  // namespace qtf

#endif  // QTF_RULES_EXPLORATION_RULES_H_
