#include "rules/default_rules.h"

#include <map>
#include <string>
#include <string_view>

#include "ruledsl/compiler.h"
#include "rules/exploration_rules.h"
#include "rules/implementation_rules.h"

namespace qtf {
namespace {

/// The text of rules/dsl/{join,select,union}_rules.qtr, embedded at build
/// time (see CMakeLists.txt): the only definition of the 15 logical rules
/// they hold.
constexpr std::string_view kPortedRuleSpecs[] = {
#include "ported_rules.inc"
};

/// Compiles the embedded specs, keyed by rule name. They ship in the
/// binary, so they are tagged builtin like the C++ rules.
std::map<std::string, std::unique_ptr<Rule>> CompilePortedRules() {
  std::map<std::string, std::unique_ptr<Rule>> rules;
  for (std::string_view text : kPortedRuleSpecs) {
    auto compiled = ruledsl::CompileRuleDsl(text);
    QTF_CHECK(compiled.ok()) << "embedded rule spec: "
                             << compiled.status().ToString();
    for (std::unique_ptr<Rule>& rule : *compiled) {
      rule->set_origin(RuleOrigin::kBuiltin);
      const std::string name = rule->name();
      const bool added = rules.emplace(name, std::move(rule)).second;
      QTF_CHECK(added) << "embedded rule spec " << name << " is defined twice";
    }
  }
  return rules;
}

}  // namespace

std::unique_ptr<RuleRegistry> MakeDefaultRuleRegistry() {
  auto registry = std::make_unique<RuleRegistry>();
  std::map<std::string, std::unique_ptr<Rule>> ported = CompilePortedRules();
  auto port = [&](const char* name) {
    auto it = ported.find(name);
    QTF_CHECK(it != ported.end()) << "no embedded rule spec named " << name;
    std::unique_ptr<Rule> rule = std::move(it->second);
    ported.erase(it);
    return rule;
  };

  // --- 30 logical transformation rules (ids 0..29) ---
  registry->Register(port("JoinCommutativity"));         // 0
  registry->Register(port("JoinAssociativityLeft"));     // 1
  registry->Register(port("JoinAssociativityRight"));    // 2
  registry->Register(port("SelectPushBelowJoinLeft"));   // 3
  registry->Register(port("SelectPushBelowJoinRight"));  // 4
  registry->Register(port("SelectPushBelowLojLeft"));    // 5
  registry->Register(port("SelectMerge"));               // 6
  registry->Register(port("SelectSplit"));               // 7
  registry->Register(MakeSelectPushBelowProject());      // 8
  registry->Register(MakeSelectPushBelowGroupBy());      // 9
  registry->Register(MakeSelectPushBelowUnionAll());     // 10
  registry->Register(MakeProjectMerge());                // 11
  registry->Register(MakeGroupByPushBelowJoinLeft());    // 12
  registry->Register(MakeGroupByPullAboveJoinLeft());    // 13
  registry->Register(port("LojToJoin"));                 // 14
  registry->Register(port("JoinLojAssocLeft"));          // 15
  registry->Register(port("LojLojAssocRight"));          // 16
  registry->Register(MakeSemiJoinToJoinDistinct());      // 17
  registry->Register(MakeJoinToSemiJoin());              // 18
  registry->Register(MakeAntiToLojNullFilter());         // 19
  registry->Register(port("UnionAllCommutativity"));     // 20
  registry->Register(port("UnionAllAssociativity"));     // 21
  registry->Register(MakeDistinctElimination());         // 22
  registry->Register(MakeGroupByToDistinct());           // 23
  registry->Register(MakeDistinctToGroupBy());           // 24
  registry->Register(MakeGroupByOnKeyElimination());     // 25
  registry->Register(port("SelectPushBelowDistinct"));   // 26
  registry->Register(MakeProjectPushBelowUnionAll());    // 27
  registry->Register(MakeSemiJoinCommuteSelect());       // 28
  registry->Register(port("SelectIntoJoin"));            // 29
  QTF_CHECK(ported.empty()) << "embedded rule spec " << ported.begin()->first
                            << " has no id";

  // --- implementation rules ---
  registry->Register(MakeGetToScan());
  registry->Register(MakeSelectToFilter());
  registry->Register(MakeProjectToCompute());
  registry->Register(MakeJoinToNlJoin());
  registry->Register(MakeJoinToHashJoin());
  registry->Register(MakeGroupByToHashAggregate());
  registry->Register(MakeGroupByToStreamAggregate());
  registry->Register(MakeUnionAllToConcat());
  registry->Register(MakeDistinctToHashDistinct());

  return registry;
}

}  // namespace qtf
