#ifndef QTF_RULEDSL_COMPILER_H_
#define QTF_RULEDSL_COMPILER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "optimizer/rule.h"
#include "ruledsl/ast.h"

namespace qtf {
namespace ruledsl {

struct CompileOptions {
  /// When set, compile failures count on qtf.dsl.compile_errors and the
  /// compiled rules count the rewrite instantiations they drop as
  /// semantically invalid on qtf.dsl.rejected. Invalid instantiations are
  /// dropped either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Compiles parsed rule specs onto the optimizer's pattern machinery: each
/// spec's match clause lowers to a PatternNode tree, and the rule itself
/// becomes an interpreted ExplorationRule. Compilation resolves
/// placeholders and labels to slots; Apply binds the slots from the bound
/// tree, evaluates guards, and instantiates the rewrite templates by
/// sharing bound subtrees (never mutating them — the memo owns the GroupRef
/// leaves). Compiled rules are tagged RuleOrigin::kDsl.
///
/// Binding errors (unbound placeholder, pred() on a label without a
/// predicate, ids() on a non-unionall label, duplicate names, ...) are
/// kInvalidArgument with the 1-based line:col of the offending token.
/// Rules that compile but produce semantically invalid trees at Apply time
/// (machine-generated candidates can) have those outputs dropped and
/// counted, never emitted and never a crash.
Result<std::vector<std::unique_ptr<Rule>>> CompileRuleSpecs(
    const std::vector<RuleSpec>& specs, const CompileOptions& options = {});

/// Parse + compile .qtr text in one step.
Result<std::vector<std::unique_ptr<Rule>>> CompileRuleDsl(
    std::string_view text, const CompileOptions& options = {});

}  // namespace ruledsl
}  // namespace qtf

#endif  // QTF_RULEDSL_COMPILER_H_
