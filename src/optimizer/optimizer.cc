#include "optimizer/optimizer.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "logical/validate.h"
#include "optimizer/memo.h"
#include "optimizer/plan_cache.h"

namespace qtf {
namespace {

/// Drives exploration, implementation, costing and extraction over one
/// memo. Stack-allocated per Optimize() call.
class SearchEngine {
 public:
  SearchEngine(const RuleRegistry& rules, const CostModel& cost_model,
               const OptimizerOptions& options, FaultInjector* fault_injector,
               const std::vector<obs::Counter*>* rule_apply)
      : rules_(rules),
        cost_model_(cost_model),
        options_(options),
        fault_injector_(fault_injector),
        rule_apply_(rule_apply),
        memo_(rules.size()) {}

  Result<OptimizeResult> Run(const Query& query) {
    const int root = memo_.InsertTree(*query.root);
    if (root < 0) {
      return Status::ResourceExhausted(
          "query has more operators than the memo holds (" +
          std::to_string(Memo::kMaxTotalExprs) + ")");
    }
    QTF_RETURN_NOT_OK(Explore());
    QTF_RETURN_NOT_OK(Implement());
    double cost = BestCost(root);
    if (!std::isfinite(cost)) {
      // With exploration truncated by the deadline the failure is the
      // deadline's, not a planner invariant violation.
      if (deadline_passed_) {
        return Status::DeadlineExceeded(
            "deadline passed before any plan was found");
      }
      return Status::Internal("no finite-cost plan found for query");
    }
    QTF_ASSIGN_OR_RETURN(PhysicalOpPtr plan, Extract(root));

    // Normalize the root output order to the query's declared order (group
    // expressions agree on the output *set*, not its order). The reorder is
    // pure bookkeeping -- charging for it would make the reported cost
    // depend on *which* equivalent expression won and break the
    // monotonicity guarantee Cost(q) <= Cost(q, not R).
    std::vector<ColumnId> want = query.root->OutputColumns();
    if (plan->OutputColumns() != want) {
      std::vector<ProjectItem> items;
      items.reserve(want.size());
      for (ColumnId id : want) {
        items.push_back(
            ProjectItem{Col(id, query.registry->TypeOf(id)), id});
      }
      plan = std::make_shared<ComputeOp>(std::move(plan), std::move(items));
    }

    OptimizeResult result;
    result.plan = std::move(plan);
    result.cost = cost;
    result.exercised_rules = std::move(exercised_);
    result.group_count = memo_.group_count();
    result.expr_count = memo_.expr_count();
    result.saturated = memo_.saturated();
    result.budget_exhausted = deadline_passed_;
    return result;
  }

  /// The caps that cut this search's memo short (see Memo::Truncation).
  const Memo::Truncation& truncation() const { return memo_.truncation(); }

 private:
  bool IsDisabled(const Rule& rule) const {
    return options_.disabled_rules.count(rule.id()) > 0;
  }

  void CountApplication(RuleId id) const {
    if (rule_apply_ != nullptr &&
        static_cast<size_t>(id) < rule_apply_->size()) {
      (*rule_apply_)[static_cast<size_t>(id)]->Increment();
    }
  }

  /// Deadline check at task-loop granularity. The clock is only read every
  /// kDeadlineStride checks to keep the probe cheap.
  bool DeadlinePassed() {
    if (deadline_passed_) return true;
    if (!options_.deadline.never() &&
        (++deadline_checks_ % kDeadlineStride) == 0 &&
        options_.deadline.expired()) {
      deadline_passed_ = true;
    }
    return deadline_passed_;
  }

  /// Whether every child of a rule output is a GroupRef leaf: the memo
  /// stores it as-is, with no subtree to resolve.
  static bool InBoundForm(const LogicalOp& op) {
    for (const LogicalOpPtr& child : op.children()) {
      if (child->kind() != LogicalOpKind::kGroupRef) return false;
    }
    return true;
  }

  /// Whether `rule` must (re)run on `expr` at memo version `version`, and
  /// if so the `since` version for BindPattern. It runs when it never ran
  /// there (since -1), or when the memo grew since its last run there and
  /// either
  ///   (a) a group BindPattern reads grew, so there may be new bindings:
  ///       since is the last run's version, so only the combinations
  ///       holding a newer expression are bound, or
  ///   (b) the last run built a subtree: the index resolves it to a group
  ///       holding that expression, and since groups are never merged
  ///       that group can differ on a rerun, so every combination is
  ///       bound again (since -1).
  /// Otherwise a rerun repeats the last run's bound-form outputs, which
  /// land on the copies that run stored. For the same reason (a) may skip
  /// the old combinations: each re-derives bound-form outputs that land on
  /// the stored copies or are refused again at a cap that only tightens.
  /// New expressions are appended to their groups, so every old
  /// combination inside today's first kMaxBindings was inside the last
  /// run's.
  std::optional<int64_t> BindSince(const GroupExpr& expr,
                                   const ExplorationRule& rule,
                                   int64_t version) const {
    const GroupExpr::Application& last =
        expr.applied[static_cast<size_t>(rule.id())];
    if (last.version < 0) return -1;
    if (last.version == version) return std::nullopt;
    if (last.built_subtree) return -1;
    if (memo_.BindingInputsGrewSince(expr, *rule.pattern(), last.version)) {
      return last.version;
    }
    return std::nullopt;
  }

  /// Applies exploration rules to fixpoint. A rule is (re)applied to an
  /// expression when BindSince says a rerun can add something, so
  /// multi-level patterns eventually see all bindings. Exploration is the
  /// unbounded part of the search, so this is where the deadline and
  /// cancellation are enforced: a passed deadline stops adding expressions
  /// (the caller still implements and costs what exists), a cancelled
  /// token aborts with kCancelled.
  Status Explore() {
    // Reused by every rule run.
    std::vector<LogicalOpPtr> bindings;
    std::vector<LogicalOpPtr> outputs;
    bool changed = true;
    while (changed && !memo_.saturated() && !DeadlinePassed()) {
      changed = false;
      for (int g = 0; g < memo_.group_count(); ++g) {
        // Index loop: exprs/groups grow during iteration.
        for (size_t ei = 0; ei < memo_.group(g).exprs.size(); ++ei) {
          if (options_.cancel.cancelled()) {
            return Status::Cancelled("optimization cancelled mid-search");
          }
          if (DeadlinePassed()) return Status::OK();
          for (const auto& rule_ptr : rules_.rules()) {
            if (rule_ptr->type() != RuleType::kExploration) continue;
            const auto& rule =
                static_cast<const ExplorationRule&>(*rule_ptr);
            if (IsDisabled(rule)) continue;
            // GroupExprs live behind unique_ptr, so this reference
            // survives the insertions below.
            GroupExpr& expr = *memo_.group(g).exprs[ei];
            const int64_t version = memo_.expr_count();
            const std::optional<int64_t> since =
                BindSince(expr, rule, version);
            if (!since.has_value()) continue;
            bindings.clear();
            const bool matched =
                memo_.BindPattern(expr, *rule.pattern(), *since, &bindings);
            if (matched && fault_injector_ != nullptr &&
                fault_injector_->enabled()) {
              // Key: where in the search we are, mixed with the caller's
              // salt so a retried invocation re-rolls the decision.
              uint64_t key = (static_cast<uint64_t>(g) << 40) ^
                             (static_cast<uint64_t>(ei) << 20) ^
                             static_cast<uint64_t>(rule.id()) ^
                             options_.fault_salt * 0x9e3779b97f4a7c15ULL;
              QTF_RETURN_NOT_OK(fault_injector_->Probe(
                  fault_sites::kOptimizerApplyRule, key));
            }
            bool built_subtree = false;
            for (const LogicalOpPtr& bound : bindings) {
              outputs.clear();
              rule.Apply(*bound, &outputs);
              if (!outputs.empty()) {
                exercised_.insert(rule.id());
                CountApplication(rule.id());
              }
              for (const LogicalOpPtr& output : outputs) {
                built_subtree = built_subtree || !InBoundForm(*output);
                auto [group_id, added] = memo_.Insert(output, g);
                (void)group_id;
                if (added) changed = true;
              }
            }
            expr.applied[static_cast<size_t>(rule.id())] = {
                static_cast<int32_t>(version), built_subtree};
          }
        }
      }
    }
    return Status::OK();
  }

  /// Applies implementation rules to every logical expression. Runs even
  /// after the deadline passed — it is bounded by the memo size and is what
  /// turns the truncated search into a usable best-so-far plan — but still
  /// honours cancellation.
  Status Implement() {
    for (int g = 0; g < memo_.group_count(); ++g) {
      if (options_.cancel.cancelled()) {
        return Status::Cancelled("optimization cancelled mid-implementation");
      }
      Group& grp = memo_.group(g);
      for (const auto& expr : grp.exprs) {
        for (const auto& rule_ptr : rules_.rules()) {
          if (rule_ptr->type() != RuleType::kImplementation) continue;
          const auto& rule =
              static_cast<const ImplementationRule&>(*rule_ptr);
          if (IsDisabled(rule)) continue;
          if (!MatchesPattern(*expr->op, *rule.pattern())) continue;
          size_t before = grp.alternatives.size();
          rule.Apply(*expr->op, cost_model_, &grp.alternatives);
          if (grp.alternatives.size() > before) {
            exercised_.insert(rule.id());
            CountApplication(rule.id());
          }
        }
      }
      grp.implemented = true;
    }
    return Status::OK();
  }

  double BestCost(int g) {
    Group& grp = memo_.group(g);
    switch (grp.cost_state) {
      case Group::CostState::kDone:
        return grp.best_cost;
      case Group::CostState::kInProgress:
        // Cycle guard; should not occur (memo is a DAG by construction).
        return std::numeric_limits<double>::infinity();
      case Group::CostState::kUntouched:
        break;
    }
    grp.cost_state = Group::CostState::kInProgress;
    double best = std::numeric_limits<double>::infinity();
    int best_idx = -1;
    for (size_t i = 0; i < grp.alternatives.size(); ++i) {
      const PhysicalAlternative& alt = grp.alternatives[i];
      double cost = alt.local_cost;
      for (int child : alt.child_groups) {
        cost += BestCost(child);
        if (!std::isfinite(cost)) break;
      }
      if (cost < best) {
        best = cost;
        best_idx = static_cast<int>(i);
      }
    }
    grp.best_cost = best;
    grp.best_alternative = best_idx;
    grp.cost_state = Group::CostState::kDone;
    return best;
  }

  Result<PhysicalOpPtr> Extract(int g) {
    Group& grp = memo_.group(g);
    if (grp.best_plan != nullptr) return grp.best_plan;
    if (grp.best_alternative < 0) {
      return Status::Internal("group " + std::to_string(g) +
                              " has no physical alternative");
    }
    const PhysicalAlternative& alt =
        grp.alternatives[static_cast<size_t>(grp.best_alternative)];
    std::vector<PhysicalOpPtr> child_plans;
    child_plans.reserve(alt.child_groups.size());
    for (int child : alt.child_groups) {
      QTF_ASSIGN_OR_RETURN(PhysicalOpPtr child_plan, Extract(child));
      child_plans.push_back(std::move(child_plan));
    }
    grp.best_plan = alt.build(child_plans);
    QTF_CHECK(grp.best_plan != nullptr);
    return grp.best_plan;
  }

  const RuleRegistry& rules_;
  const CostModel& cost_model_;
  const OptimizerOptions& options_;
  FaultInjector* fault_injector_;
  /// Per RuleId: total applications that produced output (may be null in
  /// contexts without metrics). Indexed defensively — the registry can be
  /// larger than the counter vector if a caller registered rules without
  /// calling Optimizer::SyncRuleMetrics().
  const std::vector<obs::Counter*>* rule_apply_;
  Memo memo_;
  RuleIdSet exercised_;
  bool deadline_passed_ = false;
  /// The clock is only read every kDeadlineStride deadline checks.
  static constexpr int64_t kDeadlineStride = 64;
  int64_t deadline_checks_ = 0;
};

}  // namespace

Optimizer::Optimizer(const RuleRegistry* rules, obs::MetricsRegistry* metrics)
    : rules_(rules) {
  QTF_CHECK(rules_ != nullptr);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  invocations_ = metrics_->counter("qtf.optimizer.invocations");
  searches_ = metrics_->counter("qtf.optimizer.searches");
  saturated_ = metrics_->counter("qtf.optimizer.saturated");
  truncated_total_exprs_ =
      metrics_->counter("qtf.optimizer.truncated.total_exprs");
  truncated_group_exprs_ =
      metrics_->counter("qtf.optimizer.truncated.group_exprs");
  truncated_bindings_ = metrics_->counter("qtf.optimizer.truncated.bindings");
  memo_groups_ = metrics_->histogram("qtf.optimizer.memo_groups");
  memo_exprs_ = metrics_->histogram("qtf.optimizer.memo_exprs");
  search_seconds_ = metrics_->histogram("qtf.optimizer.search_seconds");
  budget_exhausted_ = metrics_->counter("qtf.robustness.budget_exhausted");
  cancelled_ = metrics_->counter("qtf.robustness.cancelled");
  interner_ = std::make_unique<NodeInterner>();
  interner_->set_metrics(metrics_);
  SyncRuleMetrics();
}

void Optimizer::SyncRuleMetrics() {
  rule_fired_.reserve(static_cast<size_t>(rules_->size()));
  rule_apply_.reserve(static_cast<size_t>(rules_->size()));
  for (int id = static_cast<int>(rule_fired_.size()); id < rules_->size();
       ++id) {
    rule_fired_.push_back(metrics_->counter("qtf.optimizer.rule_fired." +
                                            rules_->rule(id).name()));
  }
  for (int id = static_cast<int>(rule_apply_.size()); id < rules_->size();
       ++id) {
    rule_apply_.push_back(metrics_->counter("qtf.optimizer.rule_apply." +
                                            rules_->rule(id).name()));
  }
}

Result<OptimizeResult> Optimizer::Optimize(const Query& query,
                                           const OptimizerOptions& options) {
  if (!query.valid()) {
    return Status::InvalidArgument("query has no root or registry");
  }
  // A cache hit below still counts as an invocation — only the search is
  // skipped — so invocation-count experiments are cache-independent.
  invocations_->Increment();
  if (options.cancel.cancelled()) {
    cancelled_->Increment();
    return Status::Cancelled("optimization cancelled before search");
  }
  QTF_RETURN_NOT_OK(ValidateTree(*query.root, *query.registry));
  // Canonicalize the input through the interner: structurally-equal roots
  // collapse to one shared instance whose fingerprint and subtree size are
  // cached, so the cache keying below and every rehash inside the search
  // are O(1) lookups instead of full-tree walks. The canonical tree is
  // LogicalTreeEquals-identical to the input, so results are unchanged.
  Query canonical = query;
  canonical.root = interner_->Intern(query.root);
  PlanCache* cache = plan_cache_;
  if (cache != nullptr && fault_injector_ != nullptr &&
      fault_injector_->enabled()) {
    // An unavailable cache is degraded around, not fatal: this invocation
    // just searches from scratch (and skips the insert, so a flaky cache
    // never stores anything it could not have served).
    uint64_t key = TreeFingerprint(*canonical.root) ^
                   options.fault_salt * 0x9e3779b97f4a7c15ULL;
    if (!fault_injector_->Probe(fault_sites::kPlanCacheGet, key).ok()) {
      cache = nullptr;
    }
  }
  if (cache != nullptr) {
    std::optional<OptimizeResult> hit =
        cache->Lookup(canonical, options.disabled_rules);
    if (hit.has_value()) return *std::move(hit);
  }
  searches_->Increment();
  SearchEngine engine(*rules_, cost_model_, options, fault_injector_,
                      &rule_apply_);
  const auto search_start = std::chrono::steady_clock::now();
  Result<OptimizeResult> result = engine.Run(canonical);
  search_seconds_->Observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - search_start)
                               .count());
  const Memo::Truncation& truncation = engine.truncation();
  if (truncation.total_exprs) truncated_total_exprs_->Increment();
  if (truncation.group_exprs) truncated_group_exprs_->Increment();
  if (truncation.bindings) truncated_bindings_->Increment();
  if (result.ok()) {
    memo_groups_->Observe(static_cast<double>(result->group_count));
    memo_exprs_->Observe(static_cast<double>(result->expr_count));
    if (result->saturated) saturated_->Increment();
    if (result->budget_exhausted) budget_exhausted_->Increment();
    for (RuleId id : result->exercised_rules) {
      // Registry growth without SyncRuleMetrics() leaves late rules
      // uncounted rather than out of bounds.
      if (static_cast<size_t>(id) < rule_fired_.size()) {
        rule_fired_[static_cast<size_t>(id)]->Increment();
      }
    }
  } else if (result.status().code() == StatusCode::kCancelled) {
    cancelled_->Increment();
  }
  // Deadline-truncated results are upper bounds, not Cost(q, not R);
  // caching them would poison later lookups of the same key.
  if (cache != nullptr && result.ok() && !result->budget_exhausted) {
    cache->Insert(canonical, options.disabled_rules, result.value());
  }
  return result;
}

}  // namespace qtf
