#ifndef QTF_OPTIMIZER_MEMO_H_
#define QTF_OPTIMIZER_MEMO_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "logical/ops.h"
#include "logical/props.h"
#include "optimizer/rule.h"
#include "pattern/pattern.h"

namespace qtf {

/// One logical expression inside a memo group: an operator whose children
/// are GroupRefOp leaves pointing at other groups.
struct GroupExpr {
  LogicalOpPtr op;
  /// Memo version (total expression count) right after this expression was
  /// stored.
  int32_t version = 0;
  /// The last application of one rule to this expression.
  struct Application {
    /// Memo version (total expression count) when it ran; -1 = never.
    int32_t version = -1;
    /// Some output was not in bound form: it built a subtree, which the
    /// signature index resolves to a group that can differ on a rerun.
    bool built_subtree = false;
  };
  /// Per RuleId. Exploration decides from this whether a rerun can add
  /// anything (see SearchEngine::BindSince).
  std::vector<Application> applied;

  /// The group the i-th child's GroupRef leaf points at.
  int child_group(size_t i) const {
    return static_cast<const GroupRefOp&>(*op->children()[i]).group_id();
  }
};

/// An equivalence class of logical expressions plus its physical
/// alternatives and costing state.
struct Group {
  int id = -1;
  LogicalProps props;
  /// Never empty: a group is created with its first expression, and the
  /// last one's version is the group's (the memo version after its last
  /// insert).
  std::vector<std::unique_ptr<GroupExpr>> exprs;

  std::vector<PhysicalAlternative> alternatives;
  bool implemented = false;

  // Costing / extraction state.
  enum class CostState { kUntouched, kInProgress, kDone };
  CostState cost_state = CostState::kUntouched;
  double best_cost = std::numeric_limits<double>::infinity();
  int best_alternative = -1;
  PhysicalOpPtr best_plan;  // memoized extraction
};

/// The Cascades-style memo: groups of equivalent logical expressions with
/// global deduplication on (operator arguments, child group ids).
class Memo {
 public:
  /// `rule_count` sizes the per-expression applied-rule bookkeeping.
  explicit Memo(int rule_count) : rule_count_(rule_count) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Recursively copies a plain logical tree into the memo; returns the
  /// root group id, or -1 when the memo is full and some operator of the
  /// tree is not already stored. GroupRef leaves are resolved to their
  /// groups.
  int InsertTree(const LogicalOp& op);

  /// Inserts an expression produced by a rule. Children may be GroupRefs
  /// (reused groups) or fresh operator subtrees (inserted recursively).
  /// `target_group` is the group the root expression belongs to, or -1 to
  /// place it by global lookup (creating a new group if unseen).
  /// Returns {group id, whether a new expression was added}; a refused
  /// insertion returns {target_group, false}. Duplicate insertions are
  /// detected from `op` in place (no bound-form clone); an already-bound
  /// `op` (all children GroupRefs) is stored as-is.
  std::pair<int, bool> Insert(const LogicalOpPtr& op, int target_group);

  Group& group(int id) {
    QTF_CHECK(id >= 0 && static_cast<size_t>(id) < groups_.size());
    return *groups_[static_cast<size_t>(id)];
  }
  const Group& group(int id) const {
    QTF_CHECK(id >= 0 && static_cast<size_t>(id) < groups_.size());
    return *groups_[static_cast<size_t>(id)];
  }

  /// Which search-space caps cut this memo short; each flag is set at the
  /// first cut and never cleared.
  struct Truncation {
    bool total_exprs = false;  // an insertion refused at kMaxTotalExprs
    bool group_exprs = false;  // an insertion refused at kMaxGroupExprs
    bool bindings = false;     // BindPattern dropped bindings at kMaxBindings
  };

  int group_count() const { return static_cast<int>(groups_.size()); }
  int64_t expr_count() const { return expr_count_; }
  const Truncation& truncation() const { return truncation_; }
  /// An insertion was refused at the total or the per-group cap.
  bool saturated() const {
    return truncation_.total_exprs || truncation_.group_exprs;
  }

  /// Enumerates the bound trees of `expr` against `pattern` (top-anchored):
  /// placeholder positions become the expression's GroupRef children;
  /// operator-pattern children are expanded against every matching
  /// expression of the child group, in group order, the first position
  /// varying slowest. Every combination counts toward `kMaxBindings`; a cut
  /// that drops a candidate sets truncation().bindings. Only combinations
  /// holding an expression stored after memo version `since` (the root
  /// included, so `since < 0` builds all) are built and appended to `out`;
  /// a deeper child pattern's bindings all count as newer. Returns whether
  /// any combination exists.
  bool BindPattern(const GroupExpr& expr, const PatternNode& pattern,
                   int64_t since, std::vector<LogicalOpPtr>* out);

  /// Whether a group that BindPattern(expr, pattern) reads has received an
  /// expression since memo version `version`. Conservative: it counts
  /// every group below an operator-pattern position, including those
  /// BindPattern skips after a cut or an empty position.
  bool BindingInputsGrewSince(const GroupExpr& expr,
                              const PatternNode& pattern,
                              int64_t version) const;

  /// Returns the GroupRef leaf for a group (shared, stable props pointer).
  /// Memoized: every call for the same group returns the same instance.
  LogicalOpPtr MakeGroupRef(int group_id) const;

  /// Search-space limits; exploration stops adding expressions beyond them
  /// (saturated() turns true). An insertion refused at a cap fails whole:
  /// it creates no group, and neither does any enclosing subtree.
  /// Well-behaved rule sets stay far below these (hundreds of expressions
  /// for typical test queries); the caps bound the damage when a *buggy*
  /// rule pollutes groups with inequivalent expressions and exploration
  /// stops converging.
  static constexpr int64_t kMaxTotalExprs = 6000;
  static constexpr int kMaxGroupExprs = 160;
  static constexpr int kMaxBindings = 64;
  static_assert(kMaxTotalExprs <= std::numeric_limits<int32_t>::max(),
                "GroupExpr stores versions as int32_t");

 private:
  /// Working storage of one BindPattern enumeration.
  struct BindScratch {
    struct Option {
      const LogicalOpPtr* op;  // the child bound at this position
      bool newer;              // holds an expression stored after `since`
    };
    std::vector<Option> options;  // every position's options, in order
    std::vector<size_t> ends;     // per position: one past its last option
    std::vector<size_t> choice;   // per position: the chosen option
    std::vector<LogicalOpPtr> nested;  // bindings of deeper child patterns
  };

  int NewGroup(LogicalProps props);

  /// BindPattern over `scratch`: the memo's own for the outermost call,
  /// a local one for each deeper child pattern.
  bool Bind(const GroupExpr& expr, const PatternNode& pattern, int64_t since,
            BindScratch* scratch, std::vector<LogicalOpPtr>* out);

  /// Shared implementation of InsertTree/Insert once children are resolved
  /// to group ids. `bound_hint`, when non-null, is `op` already in bound
  /// form (children are GroupRef leaves) and is stored directly; otherwise
  /// the bound form is materialized only if the expression is new.
  std::pair<int, bool> InsertNormalized(const LogicalOp& op,
                                        std::span<const int> child_groups,
                                        const LogicalOpPtr* bound_hint,
                                        int target_group);

  int rule_count_;
  std::vector<std::unique_ptr<Group>> groups_;
  int64_t expr_count_ = 0;
  Truncation truncation_;
  /// The only dedup: signature hash (LocalHash mixed with the child group
  /// ids) -> (group, expr index), one entry per stored expression. A probe
  /// compares the stored expression's child groups and LocalEquals, so
  /// hash collisions are harmless.
  std::unordered_multimap<size_t, std::pair<int, int>> signature_index_;
  /// BindPattern's option lists and odometer, reused across calls (a memo
  /// is confined to one search thread).
  BindScratch bind_scratch_;
  /// Lazily-built shared GroupRef leaves, one slot per group (see
  /// MakeGroupRef). Mutable: memoization only, and a memo is confined to
  /// one search thread.
  mutable std::vector<LogicalOpPtr> group_ref_cache_;
};

}  // namespace qtf

#endif  // QTF_OPTIMIZER_MEMO_H_
