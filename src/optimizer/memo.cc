#include "optimizer/memo.h"

namespace qtf {

LogicalOpPtr Memo::MakeGroupRef(int group_id) const {
  const Group& g = group(group_id);
  // One shared leaf per group (memo-local hash-consing): bound trees built
  // during exploration all point at the same GroupRef instance instead of
  // allocating a fresh one per bind. Safe because Group objects (and so
  // their props) are stable behind unique_ptr for the memo's lifetime.
  if (group_ref_cache_.size() < groups_.size()) {
    group_ref_cache_.resize(groups_.size());
  }
  LogicalOpPtr& slot = group_ref_cache_[static_cast<size_t>(group_id)];
  if (slot == nullptr) {
    slot = std::make_shared<GroupRefOp>(group_id, &g.props);
  }
  return slot;
}

int Memo::NewGroup(LogicalProps props) {
  auto g = std::make_unique<Group>();
  g->id = group_count();
  g->props = std::move(props);
  groups_.push_back(std::move(g));
  return groups_.back()->id;
}

int Memo::InsertTree(const LogicalOp& op) {
  if (op.kind() == LogicalOpKind::kGroupRef) {
    return static_cast<const GroupRefOp&>(op).group_id();
  }
  std::vector<int> child_groups;
  child_groups.reserve(op.children().size());
  for (const LogicalOpPtr& child : op.children()) {
    const int child_group = InsertTree(*child);
    if (child_group < 0) return -1;
    child_groups.push_back(child_group);
  }
  return InsertNormalized(op, child_groups, /*bound_hint=*/nullptr,
                          /*target_group=*/-1)
      .first;
}

std::pair<int, bool> Memo::Insert(const LogicalOpPtr& op, int target_group) {
  QTF_CHECK(op != nullptr);
  if (op->kind() == LogicalOpKind::kGroupRef) {
    // Degenerate rule output: the whole expression is an existing group.
    return {static_cast<const GroupRefOp&>(*op).group_id(), false};
  }
  // Normalize children to group ids (recursively inserting new subtrees).
  std::vector<int> child_groups;
  child_groups.reserve(op->children().size());
  bool all_refs = true;
  for (const LogicalOpPtr& child : op->children()) {
    if (child->kind() == LogicalOpKind::kGroupRef) {
      child_groups.push_back(static_cast<const GroupRefOp&>(*child).group_id());
    } else {
      const int child_group = InsertTree(*child);
      if (child_group < 0) return {target_group, false};
      child_groups.push_back(child_group);
      all_refs = false;
    }
  }
  // When the expression is already in bound form (every child a GroupRef —
  // the common case for rule outputs built over bound inputs), it can be
  // stored as-is instead of being cloned.
  return InsertNormalized(*op, child_groups, all_refs ? &op : nullptr,
                          target_group);
}

std::pair<int, bool> Memo::InsertNormalized(const LogicalOp& op,
                                            const std::vector<int>& child_groups,
                                            const LogicalOpPtr* bound_hint,
                                            int target_group) {
  // The signature index is the only dedup. Every stored expression is in
  // it, and LocalEquals implies an equal LocalHash, so every copy of this
  // expression (in the target group or in any other) is in this range; the
  // range's entries all share `child_groups` by construction. Groups are
  // never merged, so one expression may live in several groups, and with
  // no target the first copy found answers. LocalHash/LocalEquals exclude
  // children, so the lookup works on `op` directly and duplicate insertions
  // (the overwhelming majority once exploration converges) never pay for a
  // WithNewChildren clone.
  Signature sig{op.LocalHash(), child_groups};
  auto [begin, end] = signature_index_.equal_range(sig);
  for (auto it = begin; it != end; ++it) {
    const auto& [g, idx] = it->second;
    if (target_group >= 0 && g != target_group) continue;
    if (group(g).exprs[static_cast<size_t>(idx)]->op->LocalEquals(op)) {
      return {g, false};
    }
  }

  // A new expression. Refuse it at a cap before creating (and deriving
  // props for) a fresh group that would stay empty and unreachable.
  const bool total_full = expr_count_ >= kMaxTotalExprs;
  const bool group_full =
      target_group >= 0 &&
      static_cast<int>(group(target_group).exprs.size()) >= kMaxGroupExprs;
  if (total_full || group_full) {
    truncation_.total_exprs |= total_full;
    truncation_.group_exprs |= group_full;
    return {target_group, false};
  }

  LogicalOpPtr bound;
  if (bound_hint != nullptr) {
    bound = *bound_hint;
  } else {
    std::vector<LogicalOpPtr> ref_children;
    ref_children.reserve(child_groups.size());
    for (int cg : child_groups) ref_children.push_back(MakeGroupRef(cg));
    bound = op.WithNewChildren(std::move(ref_children));
  }

  int g = target_group;
  if (g < 0) {
    // Derive properties for a fresh group from this expression.
    std::vector<const LogicalProps*> child_props;
    child_props.reserve(child_groups.size());
    for (int cg : child_groups) child_props.push_back(&group(cg).props);
    g = NewGroup(DeriveProps(*bound, child_props));
  }

  Group& grp = group(g);
  auto expr = std::make_unique<GroupExpr>();
  expr->op = bound;
  expr->child_groups = child_groups;
  expr->applied.resize(static_cast<size_t>(rule_count_));
  grp.exprs.push_back(std::move(expr));
  ++expr_count_;
  grp.version = expr_count_;
  signature_index_.emplace(
      sig, std::make_pair(g, static_cast<int>(grp.exprs.size()) - 1));
  return {g, true};
}

namespace {

/// Appends to `out` the trees `op` makes with one option per child
/// position, in order, stopping at `max_bindings` trees; sets `*cut` when
/// a further tree was left out.
void CrossProduct(
    const std::vector<std::vector<LogicalOpPtr>>& options, size_t index,
    std::vector<LogicalOpPtr>* current,
    const LogicalOpPtr& op, std::vector<LogicalOpPtr>* out, int max_bindings,
    bool* cut) {
  if (index == options.size()) {
    if (static_cast<int>(out->size()) >= max_bindings) {
      *cut = true;
      return;
    }
    // When every chosen child is the expression's own stored child (true
    // for any single-level pattern, whose non-root positions are all
    // placeholders), the binding IS the stored expression: share it
    // instead of cloning a structurally-identical copy.
    bool same = current->size() == op->children().size();
    for (size_t i = 0; same && i < current->size(); ++i) {
      same = (*current)[i].get() == op->children()[i].get();
    }
    out->push_back(same ? op : op->WithNewChildren(*current));
    return;
  }
  for (const LogicalOpPtr& option : options[index]) {
    current->push_back(option);
    CrossProduct(options, index + 1, current, op, out, max_bindings, cut);
    current->pop_back();
    if (*cut) return;
  }
}

bool RootMatches(const LogicalOp& op, const PatternNode& pattern) {
  if (pattern.type() == PatternNode::Type::kAny) return true;
  if (op.kind() != pattern.op_kind()) return false;
  if (pattern.join_kind().has_value() &&
      static_cast<const JoinOp&>(op).join_kind() != *pattern.join_kind()) {
    return false;
  }
  return op.children().size() == pattern.children().size();
}

}  // namespace

std::vector<LogicalOpPtr> Memo::BindPattern(const GroupExpr& expr,
                                            const PatternNode& pattern) {
  std::vector<LogicalOpPtr> out;
  if (!RootMatches(*expr.op, pattern)) return out;
  if (pattern.type() == PatternNode::Type::kAny) {
    out.push_back(expr.op);
    return out;
  }
  std::vector<std::vector<LogicalOpPtr>> options(pattern.children().size());
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    const PatternNode& child_pattern = *pattern.children()[i];
    int child_group = expr.child_groups[i];
    if (child_pattern.type() == PatternNode::Type::kAny) {
      // Reuse the stored GroupRef leaf.
      options[i].push_back(expr.op->children()[i]);
    } else {
      const Group& cg = group(child_group);
      for (size_t ci = 0; ci < cg.exprs.size(); ++ci) {
        std::vector<LogicalOpPtr> sub =
            BindPattern(*cg.exprs[ci], child_pattern);
        options[i].insert(options[i].end(), sub.begin(), sub.end());
        if (static_cast<int>(options[i].size()) < kMaxBindings) continue;
        // The cut drops every later expression the child pattern's root
        // matches.
        for (size_t rest = ci + 1; rest < cg.exprs.size(); ++rest) {
          if (RootMatches(*cg.exprs[rest]->op, child_pattern)) {
            truncation_.bindings = true;
            break;
          }
        }
        break;
      }
    }
    if (options[i].empty()) return {};
  }
  std::vector<LogicalOpPtr> current;
  bool cut = false;
  CrossProduct(options, 0, &current, expr.op, &out, kMaxBindings, &cut);
  if (cut) truncation_.bindings = true;
  return out;
}

bool Memo::BindingInputsGrewSince(const GroupExpr& expr,
                                  const PatternNode& pattern,
                                  int64_t version) const {
  // BindPattern reads nothing below a root it does not match.
  if (!RootMatches(*expr.op, pattern)) return false;
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    const PatternNode& child_pattern = *pattern.children()[i];
    if (child_pattern.type() == PatternNode::Type::kAny) continue;
    const Group& cg = group(expr.child_groups[i]);
    if (cg.version > version) return true;
    for (const auto& child_expr : cg.exprs) {
      if (BindingInputsGrewSince(*child_expr, child_pattern, version)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace qtf
