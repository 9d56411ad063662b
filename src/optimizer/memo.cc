#include "optimizer/memo.h"

#include <algorithm>
#include <array>

namespace qtf {
namespace {

/// The most children an operator kind has (Join, UnionAll): child group
/// ids are resolved into a stack buffer of this size.
constexpr size_t kMaxChildren = 2;

/// The signature index's key: LocalHash mixed with the child group ids.
size_t SignatureHash(size_t local_hash, std::span<const int> child_groups) {
  size_t h = local_hash;
  for (int g : child_groups) h = h * 1099511628211ULL + static_cast<size_t>(g);
  return h;
}

/// Whether a stored expression's children are the groups `child_groups`.
bool SameChildGroups(const GroupExpr& stored,
                     std::span<const int> child_groups) {
  if (stored.op->children().size() != child_groups.size()) return false;
  for (size_t i = 0; i < child_groups.size(); ++i) {
    if (stored.child_group(i) != child_groups[i]) return false;
  }
  return true;
}

}  // namespace

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
  const size_t arity = op.children().size();
  QTF_CHECK(arity <= kMaxChildren);
  std::array<int, kMaxChildren> child_groups{};
  for (size_t i = 0; i < arity; ++i) {
    const int child_group = InsertTree(*op.children()[i]);
    if (child_group < 0) return -1;
    child_groups[i] = child_group;
  }
  return InsertNormalized(op, std::span(child_groups).first(arity),
                          /*bound_hint=*/nullptr, /*target_group=*/-1)
      .first;
}

std::pair<int, bool> Memo::Insert(const LogicalOpPtr& op, int target_group) {
  QTF_CHECK(op != nullptr);
  if (op->kind() == LogicalOpKind::kGroupRef) {
    // Degenerate rule output: the whole expression is an existing group.
    return {static_cast<const GroupRefOp&>(*op).group_id(), false};
  }
  // Normalize children to group ids (recursively inserting new subtrees).
  const size_t arity = op->children().size();
  QTF_CHECK(arity <= kMaxChildren);
  std::array<int, kMaxChildren> child_groups{};
  bool all_refs = true;
  for (size_t i = 0; i < arity; ++i) {
    const LogicalOp& child = *op->children()[i];
    if (child.kind() == LogicalOpKind::kGroupRef) {
      child_groups[i] = static_cast<const GroupRefOp&>(child).group_id();
    } else {
      const int child_group = InsertTree(child);
      if (child_group < 0) return {target_group, false};
      child_groups[i] = child_group;
      all_refs = false;
    }
  }
  // When the expression is already in bound form (every child a GroupRef —
  // the common case for rule outputs built over bound inputs), it can be
  // stored as-is instead of being cloned.
  return InsertNormalized(*op, std::span(child_groups).first(arity),
                          all_refs ? &op : nullptr, target_group);
}

std::pair<int, bool> Memo::InsertNormalized(const LogicalOp& op,
                                            std::span<const int> child_groups,
                                            const LogicalOpPtr* bound_hint,
                                            int target_group) {
  // The signature index is the only dedup. Every stored expression is in
  // it, and LocalEquals implies an equal LocalHash, so every copy of this
  // expression (in the target group or in any other) is in this range.
  // Groups are never merged, so one expression may live in several groups,
  // and with no target the first copy found answers (the newest: a
  // multimap inserts an entry before those with an equal key).
  // LocalHash/LocalEquals exclude children, so the lookup works on `op`
  // directly and duplicate insertions (the overwhelming majority once
  // exploration converges) never pay for a WithNewChildren clone.
  const size_t hash = SignatureHash(op.LocalHash(), child_groups);
  auto [begin, end] = signature_index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const auto& [g, idx] = it->second;
    if (target_group >= 0 && g != target_group) continue;
    const GroupExpr& stored = *group(g).exprs[static_cast<size_t>(idx)];
    if (SameChildGroups(stored, child_groups) &&
        stored.op->LocalEquals(op)) {
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
  expr->applied.resize(static_cast<size_t>(rule_count_));
  ++expr_count_;
  expr->version = static_cast<int32_t>(expr_count_);
  grp.exprs.push_back(std::move(expr));
  signature_index_.emplace(
      hash, std::make_pair(g, static_cast<int>(grp.exprs.size()) - 1));
  return {g, true};
}

namespace {

bool RootMatches(const LogicalOp& op, const PatternNode& pattern) {
  if (pattern.type() == PatternNode::Type::kAny) return true;
  if (op.kind() != pattern.op_kind()) return false;
  if (pattern.join_kind().has_value() &&
      static_cast<const JoinOp&>(op).join_kind() != *pattern.join_kind()) {
    return false;
  }
  return op.children().size() == pattern.children().size();
}

/// An operator pattern whose children are all placeholders: a matching
/// expression's one binding is the stored expression itself.
bool IsSingleLevel(const PatternNode& pattern) {
  return std::ranges::all_of(pattern.children(), [](const PatternNodePtr& c) {
    return c->type() == PatternNode::Type::kAny;
  });
}

/// Steps `choice` to the next combination, the last position fastest;
/// false once every combination was visited.
bool NextCombination(std::vector<size_t>* choice,
                     const std::vector<size_t>& ends) {
  for (size_t i = choice->size(); i-- > 0;) {
    if (++(*choice)[i] < ends[i]) return true;
    (*choice)[i] = i == 0 ? 0 : ends[i - 1];
  }
  return false;
}

}  // namespace

bool Memo::BindPattern(const GroupExpr& expr, const PatternNode& pattern,
                       int64_t since, std::vector<LogicalOpPtr>* out) {
  return Bind(expr, pattern, since, &bind_scratch_, out);
}

bool Memo::Bind(const GroupExpr& expr, const PatternNode& pattern,
                int64_t since, BindScratch* scratch,
                std::vector<LogicalOpPtr>* out) {
  if (!RootMatches(*expr.op, pattern)) return false;
  BindScratch& s = *scratch;
  s.options.clear();
  s.ends.clear();
  s.nested.clear();
  BindScratch deeper;  // untouched unless a child pattern is deeper
  const size_t positions = pattern.children().size();
  for (size_t i = 0; i < positions; ++i) {
    const PatternNode& child_pattern = *pattern.children()[i];
    if (child_pattern.type() == PatternNode::Type::kAny) {
      // Reuse the stored GroupRef leaf.
      s.options.push_back({&expr.op->children()[i], false});
      s.ends.push_back(s.options.size());
      continue;
    }
    const bool single_level = IsSingleLevel(child_pattern);
    const Group& cg = group(expr.child_group(i));
    const size_t begin = s.options.size();
    for (size_t ci = 0; ci < cg.exprs.size(); ++ci) {
      const GroupExpr& child = *cg.exprs[ci];
      if (single_level) {
        if (RootMatches(*child.op, child_pattern)) {
          s.options.push_back({&child.op, child.version > since});
        }
      } else {
        // Nested bindings are built in full and all count as newer: the
        // rule rebinds everything, as it would with since < 0.
        const size_t before = s.nested.size();
        Bind(child, child_pattern, -1, &deeper, &s.nested);
        s.options.insert(s.options.end(), s.nested.size() - before,
                         BindScratch::Option{nullptr, true});
      }
      if (s.options.size() - begin < static_cast<size_t>(kMaxBindings)) {
        continue;
      }
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
    if (s.options.size() == begin) return false;
    s.ends.push_back(s.options.size());
  }
  // Nested bindings are final now; point their options at them.
  for (size_t k = 0, next = 0; next < s.nested.size(); ++k) {
    if (s.options[k].op == nullptr) s.options[k].op = &s.nested[next++];
  }

  s.choice.clear();
  for (size_t i = 0; i < positions; ++i) {
    s.choice.push_back(i == 0 ? 0 : s.ends[i - 1]);
  }
  const bool root_newer = expr.version > since;
  int combinations = 0;
  do {
    if (combinations == kMaxBindings) {
      truncation_.bindings = true;
      break;
    }
    ++combinations;
    bool newer = root_newer;
    // When every chosen child is the expression's own stored child (true
    // for any single-level pattern, whose non-root positions are all
    // placeholders), the binding IS the stored expression: share it
    // instead of cloning a structurally-identical copy.
    bool same = true;
    for (size_t i = 0; i < positions; ++i) {
      const BindScratch::Option& option = s.options[s.choice[i]];
      newer = newer || option.newer;
      same = same && option.op->get() == expr.op->children()[i].get();
    }
    if (!newer) continue;
    if (same) {
      out->push_back(expr.op);
      continue;
    }
    std::vector<LogicalOpPtr> children;
    children.reserve(positions);
    for (size_t i = 0; i < positions; ++i) {
      children.push_back(*s.options[s.choice[i]].op);
    }
    out->push_back(expr.op->WithNewChildren(std::move(children)));
  } while (NextCombination(&s.choice, s.ends));
  return true;
}

bool Memo::BindingInputsGrewSince(const GroupExpr& expr,
                                  const PatternNode& pattern,
                                  int64_t version) const {
  // BindPattern reads nothing below a root it does not match.
  if (!RootMatches(*expr.op, pattern)) return false;
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    const PatternNode& child_pattern = *pattern.children()[i];
    if (child_pattern.type() == PatternNode::Type::kAny) continue;
    const Group& cg = group(expr.child_group(i));
    if (cg.exprs.back()->version > version) return true;
    for (const auto& child_expr : cg.exprs) {
      if (BindingInputsGrewSince(*child_expr, child_pattern, version)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace qtf
