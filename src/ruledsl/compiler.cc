#include "ruledsl/compiler.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "expr/analysis.h"
#include "logical/props.h"
#include "ruledsl/parser.h"

namespace qtf {
namespace ruledsl {
namespace {

Status CompileError(SourceLoc loc, const std::string& message) {
  return Status::InvalidArgument(
      "rule DSL compile error at " + std::to_string(loc.line) + ":" +
      std::to_string(loc.col) + ": " + message);
}

PatternNodePtr LowerPattern(const PatternSpec& node) {
  switch (node.kind) {
    case PatternSpec::Kind::kPlaceholder:
    case PatternSpec::Kind::kAnyOp:
      return PatternNode::Any();
    case PatternSpec::Kind::kOp:
      break;
  }
  if (node.op_kind == LogicalOpKind::kJoin) {
    return PatternNode::Join(*node.join_kind, LowerPattern(node.children[0]),
                             LowerPattern(node.children[1]));
  }
  std::vector<PatternNodePtr> children;
  children.reserve(node.children.size());
  for (const PatternSpec& child : node.children) {
    children.push_back(LowerPattern(child));
  }
  return PatternNode::Op(node.op_kind, std::move(children));
}

// ---- the compiled program ----
//
// Compilation resolves every placeholder and label to a slot, and interns
// predicate, cols(...) and pushable/residual-split nodes, so Apply works on
// indices and evaluates each node at most once per bound tree.
//
// A column set is a list of sources, never materialized as a union: source
// s < placeholder count is placeholder s's subtree output, source
// placeholder count + l is unionall label l's output ids. Apply sorts each
// source's columns once and answers membership by binary search.
using Sources = std::vector<int>;

struct MatchNode {
  PatternSpec::Kind kind = PatternSpec::Kind::kAnyOp;
  /// kPlaceholder: subtree slot. kOp: label slot, -1 when unlabeled.
  int slot = -1;
  LogicalOpKind op_kind = LogicalOpKind::kGet;
  std::optional<JoinKind> join_kind;
  std::vector<MatchNode> children;
};

struct PredNode {
  PredSpec::Kind kind = PredSpec::Kind::kNone;
  int label = -1;         // kPred: label slot
  std::vector<int> args;  // kAnd, kHead, kTail: pred nodes
  int split = -1;         // kPushable, kResidual: split node

  auto Key() const { return std::tie(kind, label, args, split); }
  bool operator<(const PredNode& o) const { return Key() < o.Key(); }
};

/// Partition of a pool's conjuncts into those referencing only `cols` and
/// the rest; shared by pushable, residual and has_pushable over one pair.
struct SplitNode {
  int pool = -1;  // pred node
  int cols = -1;  // column set

  auto Key() const { return std::tie(pool, cols); }
  bool operator<(const SplitNode& o) const { return Key() < o.Key(); }
};

struct GuardTerm {
  GuardTermSpec::Kind kind = GuardTermSpec::Kind::kIsNull;
  int pred = -1;
  int cols = -1;   // kRejectsNull, kRefsOnly: column set
  int split = -1;  // kHasPushable
  int64_t min_count = 0;
};

struct RewriteNode {
  TemplateSpec::Kind kind = TemplateSpec::Kind::kPlaceholder;
  /// kPlaceholder: subtree slot. kUnionAll: label slot supplying the ids.
  int slot = -1;
  std::optional<JoinKind> join_kind;
  int pred = -1;  // kJoin, kSelect
  /// Column sources of the instantiated tree's output.
  Sources outputs;
  /// kJoin: column sources of both sides, which the predicate may read.
  Sources visible;
  std::vector<RewriteNode> children;
};

struct Program {
  int placeholders = 0;
  int labels = 0;
  MatchNode match;
  std::vector<PredNode> preds;
  std::vector<SplitNode> splits;
  std::vector<Sources> col_sets;
  std::vector<std::vector<GuardTerm>> guards;  // AND of ORs
  std::vector<RewriteNode> rewrites;
};

/// Checks a spec's names and builds its Program: names become slots, and
/// equal predicate, column-set and split nodes become one node. Binding
/// errors (unbound placeholder, pred() on a label without a predicate,
/// ids() on a non-unionall label, duplicate names) are kept as the first
/// error met, in source order.
class ProgramBuilder {
 public:
  Result<Program> Build(const RuleSpec& spec) {
    if (spec.pattern.kind != PatternSpec::Kind::kOp) {
      return CompileError(spec.pattern.loc,
                          "match root must be a concrete operator");
    }
    DeclareNames(spec.pattern);
    program_.placeholders = static_cast<int>(placeholders_.size());
    program_.labels = static_cast<int>(labels_.size());
    program_.match = Match(spec.pattern);
    for (const GuardSpec& guard : spec.guards) {
      std::vector<GuardTerm> terms;
      for (const GuardTermSpec& term : guard) terms.push_back(Guard(term));
      program_.guards.push_back(std::move(terms));
    }
    for (const TemplateSpec& rewrite : spec.rewrites) {
      program_.rewrites.push_back(Rewrite(rewrite));
    }
    QTF_RETURN_NOT_OK(error_);
    return std::move(program_);
  }

 private:
  struct Label {
    int slot = -1;
    LogicalOpKind op_kind = LogicalOpKind::kGet;
  };

  /// Records the first error; returns the -1 slot callers carry on with.
  int Fail(SourceLoc loc, const std::string& message) {
    if (error_.ok()) error_ = CompileError(loc, message);
    return -1;
  }

  void DeclareNames(const PatternSpec& node) {
    if (node.kind == PatternSpec::Kind::kPlaceholder &&
        !placeholders_
             .emplace(node.binding, static_cast<int>(placeholders_.size()))
             .second) {
      Fail(node.loc, "duplicate placeholder '$" + node.binding + "'");
    }
    if (node.kind == PatternSpec::Kind::kOp && !node.label.empty() &&
        !labels_
             .emplace(node.label,
                      Label{static_cast<int>(labels_.size()), node.op_kind})
             .second) {
      Fail(node.loc, "duplicate label '" + node.label + "'");
    }
    for (const PatternSpec& child : node.children) DeclareNames(child);
  }

  int Placeholder(const std::string& name, SourceLoc loc, const char* use) {
    auto it = placeholders_.find(name);
    if (it != placeholders_.end()) return it->second;
    return Fail(loc, std::string(use) + " references unbound placeholder '$" +
                         name + "'");
  }

  /// The slot of `name`, which `use` needs to be one of `kinds`.
  int LabelOf(const std::string& name, SourceLoc loc, const std::string& use,
              std::initializer_list<LogicalOpKind> kinds, const char* needs) {
    auto it = labels_.find(name);
    if (it == labels_.end()) {
      return Fail(loc, use + "() references unbound label '" + name + "'");
    }
    for (LogicalOpKind kind : kinds) {
      if (it->second.op_kind == kind) return it->second.slot;
    }
    return Fail(loc, use + "(" + name + ") needs a " + needs + " label");
  }

  MatchNode Match(const PatternSpec& spec) {
    MatchNode node;
    node.kind = spec.kind;
    node.op_kind = spec.op_kind;
    node.join_kind = spec.join_kind;
    if (spec.kind == PatternSpec::Kind::kPlaceholder) {
      node.slot = placeholders_.at(spec.binding);
    } else if (spec.kind == PatternSpec::Kind::kOp && !spec.label.empty()) {
      node.slot = labels_.at(spec.label).slot;
    }
    for (const PatternSpec& child : spec.children) {
      node.children.push_back(Match(child));
    }
    return node;
  }

  int ColSet(const std::vector<std::string>& names, SourceLoc loc) {
    Sources sources;
    for (const std::string& name : names) {
      sources.push_back(Placeholder(name, loc, "cols()"));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    return Intern(std::move(sources), &program_.col_sets, &col_set_ids_);
  }

  int Pred(const PredSpec& spec) {
    PredNode node;
    node.kind = spec.kind;
    switch (spec.kind) {
      case PredSpec::Kind::kNone:
        break;
      case PredSpec::Kind::kPred:
        node.label = LabelOf(spec.label, spec.loc, "pred",
                             {LogicalOpKind::kSelect, LogicalOpKind::kJoin},
                             "select or join");
        break;
      case PredSpec::Kind::kAnd:
      case PredSpec::Kind::kHead:
      case PredSpec::Kind::kTail:
        for (const PredSpec& arg : spec.args) node.args.push_back(Pred(arg));
        break;
      case PredSpec::Kind::kPushable:
      case PredSpec::Kind::kResidual: {
        const int pool = Pred(spec.args[0]);
        node.split = Split(pool, ColSet(spec.cols, spec.loc));
        break;
      }
    }
    return Intern(std::move(node), &program_.preds, &pred_ids_);
  }

  int Split(int pool, int cols) {
    return Intern(SplitNode{pool, cols}, &program_.splits, &split_ids_);
  }

  GuardTerm Guard(const GuardTermSpec& spec) {
    GuardTerm term;
    term.kind = spec.kind;
    term.pred = Pred(spec.pred);
    term.min_count = spec.min_count;
    const int cols = ColSet(spec.cols, spec.loc);
    if (spec.kind == GuardTermSpec::Kind::kHasPushable) {
      term.split = Split(term.pred, cols);
    } else {
      term.cols = cols;
    }
    return term;
  }

  RewriteNode Rewrite(const TemplateSpec& spec) {
    RewriteNode node;
    node.kind = spec.kind;
    node.join_kind = spec.join_kind;
    switch (spec.kind) {
      case TemplateSpec::Kind::kPlaceholder:
        node.slot = Placeholder(spec.binding, spec.loc, "rewrite");
        node.outputs = {node.slot};
        break;
      case TemplateSpec::Kind::kJoin:
      case TemplateSpec::Kind::kSelect:
        node.pred = Pred(spec.predicate);
        break;
      case TemplateSpec::Kind::kUnionAll:
        node.slot = LabelOf(spec.ids_label, spec.loc, "ids",
                            {LogicalOpKind::kUnionAll}, "unionall");
        node.outputs = {program_.placeholders + node.slot};
        break;
      case TemplateSpec::Kind::kDistinct:
        break;
    }
    for (const TemplateSpec& child : spec.children) {
      node.children.push_back(Rewrite(child));
    }
    if (spec.kind == TemplateSpec::Kind::kSelect ||
        spec.kind == TemplateSpec::Kind::kDistinct) {
      node.outputs = node.children[0].outputs;
    } else if (spec.kind == TemplateSpec::Kind::kJoin) {
      const Sources& left = node.children[0].outputs;
      const Sources& right = node.children[1].outputs;
      node.visible = left;
      node.visible.insert(node.visible.end(), right.begin(), right.end());
      // As JoinOp::OutputColumns: semi and anti joins output the left side.
      const bool both = *spec.join_kind == JoinKind::kInner ||
                        *spec.join_kind == JoinKind::kLeftOuter;
      node.outputs = both ? node.visible : left;
    }
    return node;
  }

  template <typename T>
  static int Intern(T value, std::vector<T>* nodes, std::map<T, int>* ids) {
    auto [it, added] = ids->emplace(value, static_cast<int>(nodes->size()));
    if (added) nodes->push_back(std::move(value));
    return it->second;
  }

  Status error_;
  Program program_;
  std::map<std::string, int> placeholders_;
  std::map<std::string, Label> labels_;
  std::map<Sources, int> col_set_ids_;
  std::map<PredNode, int> pred_ids_;
  std::map<SplitNode, int> split_ids_;
};

// ---- evaluation ----

/// One source's output columns, sorted; `sorted` points at the source's
/// own vector when that is already sorted, else at `owned`.
struct SourceColumns {
  const std::vector<ColumnId>* sorted = nullptr;
  std::vector<ColumnId> owned;
};

/// A predicate node's value. none/pred(label) carry the captured predicate
/// verbatim (so a rule that only moves a predicate reproduces its
/// expression identity); every other form is a conjunct list, which
/// MakeConjunction re-canonicalizes on materialization.
struct PredValue {
  bool ready = false;
  const ExprPtr* captured = nullptr;
  /// Conjuncts as pointers into the bound predicates: `list` is `owned`, or
  /// a split's side for pushable/residual.
  const std::vector<const ExprPtr*>* list = nullptr;
  std::vector<const ExprPtr*> owned;
  bool materialized = false;
  ExprPtr expr;
};

struct SplitValue {
  bool ready = false;
  std::vector<const ExprPtr*> pushable;
  std::vector<const ExprPtr*> residual;
};

const ExprPtr kNoPredicate;

/// Calls fn(const ExprPtr*) for each top-level conjunct of `expr`, in
/// SplitConjuncts order.
template <typename Fn>
void ForEachConjunct(const ExprPtr& expr, Fn&& fn) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kAnd) {
    for (const ExprPtr& child : expr->children()) ForEachConjunct(child, fn);
    return;
  }
  fn(&expr);
}

/// One Apply: the slots bound from one tree and every node's value, each
/// computed on first use.
class Evaluation {
 public:
  explicit Evaluation(const Program& program)
      : program_(program),
        subtrees_(static_cast<size_t>(program.placeholders)),
        labels_(static_cast<size_t>(program.labels)),
        sources_(static_cast<size_t>(program.placeholders + program.labels)),
        preds_(program.preds.size()),
        splits_(program.splits.size()) {}

  /// Walks the bound tree in lockstep with the match pattern. Defensive:
  /// the memo's BindPattern guarantees shape, but machine-generated rules
  /// go through the same code path, so any mismatch bails instead of
  /// crashing.
  bool Bind(const MatchNode& node, const LogicalOpPtr* self,
            const LogicalOp& op) {
    switch (node.kind) {
      case PatternSpec::Kind::kPlaceholder:
        if (self == nullptr) return false;
        subtrees_[static_cast<size_t>(node.slot)] = self;
        return true;
      case PatternSpec::Kind::kAnyOp:
        return true;
      case PatternSpec::Kind::kOp: {
        if (op.kind() != node.op_kind) return false;
        if (op.kind() == LogicalOpKind::kJoin &&
            static_cast<const JoinOp&>(op).join_kind() != *node.join_kind) {
          return false;
        }
        if (op.children().size() != node.children.size()) return false;
        if (node.slot >= 0) labels_[static_cast<size_t>(node.slot)] = &op;
        for (size_t i = 0; i < node.children.size(); ++i) {
          if (!Bind(node.children[i], &op.child(i), *op.child(i))) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  bool GuardHolds(const GuardTerm& term) {
    PredValue* value = Pred(term.pred);
    if (value == nullptr) return false;
    switch (term.kind) {
      case GuardTermSpec::Kind::kRejectsNull: {
        const ExprPtr& expr = Materialize(value);
        if (expr == nullptr) return false;
        ColumnSet cols;
        for (int source : program_.col_sets[static_cast<size_t>(term.cols)]) {
          const std::vector<ColumnId>* ids = Columns(source);
          if (ids == nullptr) return false;
          cols.insert(ids->begin(), ids->end());
        }
        return RejectsAllNull(*expr, cols);
      }
      case GuardTermSpec::Kind::kRefsOnly: {
        const ExprPtr& expr = Materialize(value);
        if (expr == nullptr) return true;  // TRUE references nothing
        return RefersOnlyTo(*expr,
                            program_.col_sets[static_cast<size_t>(term.cols)]);
      }
      case GuardTermSpec::Kind::kIsNull:
        return IsNull(*value);
      case GuardTermSpec::Kind::kNonNull:
        return !IsNull(*value);
      case GuardTermSpec::Kind::kHasPushable: {
        const SplitValue* split = Split(term.split);
        return split != nullptr && !split->pushable.empty();
      }
      case GuardTermSpec::Kind::kMinConjuncts: {
        int64_t count = 0;
        ForEach(*value, [&](const ExprPtr*) { ++count; });
        return count >= term.min_count;
      }
    }
    return false;
  }

  /// Instantiates one rewrite template. Returns false to drop the output:
  /// either a binding hiccup or — for machine-generated rules — a tree that
  /// would violate downstream invariants (predicates over columns the
  /// children don't produce, overlapping join sides, positionally
  /// mismatched unionall branches). Hand-ported rules never trip these
  /// checks; their guards already imply them.
  bool Instantiate(const RewriteNode& node, LogicalOpPtr* out) {
    switch (node.kind) {
      case TemplateSpec::Kind::kPlaceholder:
        *out = *subtrees_[static_cast<size_t>(node.slot)];
        return true;
      case TemplateSpec::Kind::kDistinct: {
        LogicalOpPtr child;
        if (!Instantiate(node.children[0], &child)) return false;
        *out = std::make_shared<DistinctOp>(std::move(child));
        return true;
      }
      case TemplateSpec::Kind::kSelect: {
        LogicalOpPtr child;
        if (!Instantiate(node.children[0], &child)) return false;
        PredValue* value = Pred(node.pred);
        if (value == nullptr) return false;
        const ExprPtr& predicate = Materialize(value);
        if (predicate == nullptr) {
          // Empty conjunction: the select is a no-op; splice the child in
          // directly.
          *out = std::move(child);
          return true;
        }
        if (!RefersOnlyTo(*predicate, node.outputs)) return false;
        *out = std::make_shared<SelectOp>(std::move(child), predicate);
        return true;
      }
      case TemplateSpec::Kind::kJoin: {
        LogicalOpPtr left;
        LogicalOpPtr right;
        if (!Instantiate(node.children[0], &left)) return false;
        if (!Instantiate(node.children[1], &right)) return false;
        if (Overlap(node.children[0].outputs, node.children[1].outputs)) {
          return false;
        }
        PredValue* value = Pred(node.pred);
        if (value == nullptr) return false;
        const ExprPtr& predicate = Materialize(value);
        if (predicate != nullptr && !RefersOnlyTo(*predicate, node.visible)) {
          return false;
        }
        *out = std::make_shared<JoinOp>(*node.join_kind, std::move(left),
                                        std::move(right), predicate);
        return true;
      }
      case TemplateSpec::Kind::kUnionAll: {
        LogicalOpPtr left;
        LogicalOpPtr right;
        if (!Instantiate(node.children[0], &left)) return false;
        if (!Instantiate(node.children[1], &right)) return false;
        const LogicalOp* label = labels_[static_cast<size_t>(node.slot)];
        if (label->kind() != LogicalOpKind::kUnionAll) return false;
        const auto& ids = static_cast<const UnionAllOp&>(*label).output_ids();
        std::vector<ColumnId> left_cols = left->OutputColumns();
        std::vector<ColumnId> right_cols = right->OutputColumns();
        if (left_cols.size() != ids.size() || right_cols.size() != ids.size()) {
          return false;
        }
        // Positional type agreement, looked up without LogicalProps::TypeOf
        // (which CHECK-fails on untracked columns).
        LogicalProps left_derived;
        LogicalProps right_derived;
        const LogicalProps& left_props = PropsOf(*left, &left_derived);
        const LogicalProps& right_props = PropsOf(*right, &right_derived);
        for (size_t i = 0; i < ids.size(); ++i) {
          auto lt = left_props.col_types.find(left_cols[i]);
          auto rt = right_props.col_types.find(right_cols[i]);
          if (lt == left_props.col_types.end() ||
              rt == right_props.col_types.end() || lt->second != rt->second) {
            return false;
          }
        }
        *out = std::make_shared<UnionAllOp>(std::move(left), std::move(right),
                                            ids);
        return true;
      }
    }
    return false;
  }

 private:
  /// A GroupRef's memo properties by reference; a constructed subtree's
  /// derived into `derived`.
  static const LogicalProps& PropsOf(const LogicalOp& op,
                                     LogicalProps* derived) {
    if (op.kind() == LogicalOpKind::kGroupRef) {
      return static_cast<const GroupRefOp&>(op).props();
    }
    *derived = DeriveTreeProps(op);
    return *derived;
  }

  /// The sorted output columns of one source; null when a unionall label
  /// is bound to another operator.
  const std::vector<ColumnId>* Columns(int source) {
    const std::vector<ColumnId>* sorted =
        sources_[static_cast<size_t>(source)].sorted;
    return sorted != nullptr ? sorted : SortColumns(source);
  }

  const std::vector<ColumnId>* SortColumns(int source) {
    SourceColumns& entry = sources_[static_cast<size_t>(source)];
    const std::vector<ColumnId>* cols = nullptr;
    if (source < program_.placeholders) {
      const LogicalOp& op = **subtrees_[static_cast<size_t>(source)];
      if (op.kind() == LogicalOpKind::kGroupRef) {
        cols = &static_cast<const GroupRefOp&>(op).props().output_cols;
      } else {
        entry.owned = op.OutputColumns();
        cols = &entry.owned;
      }
    } else {
      const LogicalOp* label =
          labels_[static_cast<size_t>(source - program_.placeholders)];
      if (label->kind() != LogicalOpKind::kUnionAll) return nullptr;
      cols = &static_cast<const UnionAllOp&>(*label).output_ids();
    }
    if (!std::is_sorted(cols->begin(), cols->end())) {
      if (cols != &entry.owned) entry.owned = *cols;
      std::sort(entry.owned.begin(), entry.owned.end());
      cols = &entry.owned;
    }
    entry.sorted = cols;
    return cols;
  }

  bool Contains(const Sources& sources, ColumnId col) {
    for (int source : sources) {
      const std::vector<ColumnId>* cols = Columns(source);
      if (cols != nullptr &&
          std::binary_search(cols->begin(), cols->end(), col)) {
        return true;
      }
    }
    return false;
  }

  /// True iff every column `expr` references is in `sources`.
  bool RefersOnlyTo(const Expr& expr, const Sources& sources) {
    return ReferencesOnlyWhere(
        expr, [&](ColumnId col) { return Contains(sources, col); });
  }

  /// True iff some column is in both sets (or a set cannot be read).
  bool Overlap(const Sources& a, const Sources& b) {
    for (int sa : a) {
      for (int sb : b) {
        const std::vector<ColumnId>* x = Columns(sa);
        const std::vector<ColumnId>* y = Columns(sb);
        if (x == nullptr || y == nullptr) return true;
        auto i = x->begin();
        auto j = y->begin();
        while (i != x->end() && j != y->end()) {
          if (*i < *j) {
            ++i;
          } else if (*j < *i) {
            ++j;
          } else {
            return true;
          }
        }
      }
    }
    return false;
  }

  template <typename Fn>
  static void ForEach(const PredValue& value, Fn&& fn) {
    if (value.captured != nullptr) {
      ForEachConjunct(*value.captured, fn);
    } else {
      for (const ExprPtr* conjunct : *value.list) fn(conjunct);
    }
  }

  static bool IsNull(const PredValue& value) {
    return value.captured != nullptr ? *value.captured == nullptr
                                     : value.list->empty();
  }

  const ExprPtr& Materialize(PredValue* value) {
    if (value->captured != nullptr) return *value->captured;
    if (!value->materialized) {
      std::vector<ExprPtr> conjuncts;
      conjuncts.reserve(value->list->size());
      for (const ExprPtr* conjunct : *value->list) {
        conjuncts.push_back(*conjunct);
      }
      value->expr = MakeConjunction(std::move(conjuncts));
      value->materialized = true;
    }
    return value->expr;
  }

  /// The value of pred node `index`; null on a binding hiccup.
  PredValue* Pred(int index) {
    PredValue& value = preds_[static_cast<size_t>(index)];
    if (value.ready) return &value;
    const PredNode& node = program_.preds[static_cast<size_t>(index)];
    value.list = &value.owned;
    switch (node.kind) {
      case PredSpec::Kind::kNone:
        value.captured = &kNoPredicate;
        break;
      case PredSpec::Kind::kPred: {
        const LogicalOp* op = labels_[static_cast<size_t>(node.label)];
        if (op->kind() == LogicalOpKind::kSelect) {
          value.captured = &static_cast<const SelectOp&>(*op).predicate();
        } else if (op->kind() == LogicalOpKind::kJoin) {
          value.captured = &static_cast<const JoinOp&>(*op).predicate();
        } else {
          return nullptr;
        }
        break;
      }
      case PredSpec::Kind::kAnd:
        for (int arg : node.args) {
          const PredValue* part = Pred(arg);
          if (part == nullptr) return nullptr;
          ForEach(*part, [&](const ExprPtr* c) { value.owned.push_back(c); });
        }
        break;
      case PredSpec::Kind::kHead:
      case PredSpec::Kind::kTail: {
        const PredValue* arg = Pred(node.args[0]);
        if (arg == nullptr) return nullptr;
        // head: the first conjunct; tail: every later one.
        const bool head = node.kind == PredSpec::Kind::kHead;
        size_t position = 0;
        ForEach(*arg, [&](const ExprPtr* c) {
          if ((position++ == 0) == head) value.owned.push_back(c);
        });
        break;
      }
      case PredSpec::Kind::kPushable:
      case PredSpec::Kind::kResidual: {
        const SplitValue* split = Split(node.split);
        if (split == nullptr) return nullptr;
        value.list = node.kind == PredSpec::Kind::kPushable ? &split->pushable
                                                            : &split->residual;
        break;
      }
    }
    value.ready = true;
    return &value;
  }

  const SplitValue* Split(int index) {
    SplitValue& value = splits_[static_cast<size_t>(index)];
    if (value.ready) return &value;
    const SplitNode& node = program_.splits[static_cast<size_t>(index)];
    const PredValue* pool = Pred(node.pool);
    if (pool == nullptr) return nullptr;
    const Sources& cols = program_.col_sets[static_cast<size_t>(node.cols)];
    ForEach(*pool, [&](const ExprPtr* c) {
      (RefersOnlyTo(**c, cols) ? value.pushable : value.residual).push_back(c);
    });
    value.ready = true;
    return &value;
  }

  // Sized once in the constructor, so pointers to elements stay valid for
  // the whole Apply.
  const Program& program_;
  std::vector<const LogicalOpPtr*> subtrees_;
  std::vector<const LogicalOp*> labels_;
  std::vector<SourceColumns> sources_;
  std::vector<PredValue> preds_;
  std::vector<SplitValue> splits_;
};

/// The interpreted rule. Apply re-binds against each bound tree the memo
/// hands it; outputs share bound subtrees per the memo contract.
class CompiledRule final : public ExplorationRule {
 public:
  CompiledRule(std::string name, PatternNodePtr pattern, Program program,
               obs::Counter* rejected)
      : ExplorationRule(std::move(name), std::move(pattern)),
        program_(std::move(program)),
        rejected_(rejected) {}

  void Apply(const LogicalOp& bound,
             std::vector<LogicalOpPtr>* out) const override {
    Evaluation eval(program_);
    if (!eval.Bind(program_.match, nullptr, bound)) return;
    for (const std::vector<GuardTerm>& guard : program_.guards) {
      bool satisfied = false;
      for (const GuardTerm& term : guard) {
        if (eval.GuardHolds(term)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) return;
    }
    for (const RewriteNode& rewrite : program_.rewrites) {
      LogicalOpPtr result;
      if (!eval.Instantiate(rewrite, &result)) {
        if (rejected_ != nullptr) rejected_->Increment();
        continue;
      }
      out->push_back(std::move(result));
    }
  }

 private:
  Program program_;
  obs::Counter* rejected_;
};

}  // namespace

Result<std::vector<std::unique_ptr<Rule>>> CompileRuleSpecs(
    const std::vector<RuleSpec>& specs, const CompileOptions& options) {
  obs::Counter* rejected =
      options.metrics != nullptr ? options.metrics->counter("qtf.dsl.rejected")
                                 : nullptr;
  std::set<std::string> names;
  std::vector<std::unique_ptr<Rule>> rules;
  rules.reserve(specs.size());
  for (const RuleSpec& spec : specs) {
    if (!names.insert(spec.name).second) {
      return CompileError(spec.loc, "duplicate rule name '" + spec.name + "'");
    }
    QTF_ASSIGN_OR_RETURN(Program program, ProgramBuilder().Build(spec));
    auto rule = std::make_unique<CompiledRule>(
        spec.name, LowerPattern(spec.pattern), std::move(program), rejected);
    rule->set_origin(RuleOrigin::kDsl);
    rules.push_back(std::move(rule));
  }
  return rules;
}

Result<std::vector<std::unique_ptr<Rule>>> CompileRuleDsl(
    std::string_view text, const CompileOptions& options) {
  Result<std::vector<RuleSpec>> specs = ParseRuleSpecs(text);
  if (!specs.ok()) {
    if (options.metrics != nullptr) {
      options.metrics->counter("qtf.dsl.compile_errors")->Increment();
    }
    return specs.status();
  }
  Result<std::vector<std::unique_ptr<Rule>>> rules =
      CompileRuleSpecs(*specs, options);
  if (!rules.ok() && options.metrics != nullptr) {
    options.metrics->counter("qtf.dsl.compile_errors")->Increment();
  }
  return rules;
}

}  // namespace ruledsl
}  // namespace qtf
