#include "qgen/generation.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "sql/render.h"

namespace qtf {

namespace {

bool ContainsAll(const RuleIdSet& rule_set, const std::vector<RuleId>& targets) {
  for (RuleId id : targets) {
    if (rule_set.count(id) == 0) return false;
  }
  return true;
}

/// Whether a trial's failed search ends the whole run: cancellation and a
/// passed deadline do; an unplannable or faulted candidate is just a miss.
bool Interrupts(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Result<GenerationOutcome> TargetedQueryGenerator::Generate(
    const std::vector<RuleId>& targets, const GenerationConfig& config) {
  std::vector<PatternNodePtr> patterns;
  if (config.method == GenerationMethod::kPattern) {
    QTF_CHECK(targets.size() == 1 || targets.size() == 2)
        << "PATTERN generation supports singleton rules and rule pairs";
    if (targets.size() == 1) {
      patterns.push_back(optimizer_->rules().rule(targets[0]).pattern());
    } else {
      // Rule pairs: compose the two patterns (Section 3.2) and try the
      // composites smallest-first, approximating "pick the query with the
      // least number of operators".
      patterns = ComposePatterns(optimizer_->rules().rule(targets[0]).pattern(),
                                 optimizer_->rules().rule(targets[1]).pattern());
      std::stable_sort(patterns.begin(), patterns.end(),
                       [](const PatternNodePtr& a, const PatternNodePtr& b) {
                         return a->Size() < b->Size();
                       });
    }
  }
  return RunTrials(targets, config, patterns, /*require_relevant=*/false);
}

Result<GenerationOutcome> TargetedQueryGenerator::GenerateRelevant(
    RuleId target, const GenerationConfig& config) {
  std::vector<PatternNodePtr> patterns;
  if (config.method == GenerationMethod::kPattern) {
    patterns.push_back(optimizer_->rules().rule(target).pattern());
  }
  return RunTrials({target}, config, patterns, /*require_relevant=*/true);
}

Result<GenerationOutcome> TargetedQueryGenerator::RunTrials(
    const std::vector<RuleId>& targets, const GenerationConfig& config,
    const std::vector<PatternNodePtr>& patterns, bool require_relevant) {
  GenerationOutcome outcome;
  obs::PhaseSpan span(optimizer_->metrics(), "qgen.generate");
  obs::Counter* trial_counter = config.method == GenerationMethod::kRandom
                                    ? trials_random_
                                    : trials_pattern_;
  auto start = std::chrono::steady_clock::now();

  // Trial queries are canonicalized through the optimizer's interner as
  // they are built: candidates re-generated across trials (and the many
  // shared Get/Select subtrees among them) collapse to pointer-shared,
  // pre-fingerprinted nodes before Optimize() ever sees them.
  TreeBuilderOptions builder_options = config.builder_options;
  builder_options.interner = optimizer_->interner();
  RandomQueryGenerator random_gen(catalog_, config.seed, {}, builder_options);
  PatternInstantiator instantiator(catalog_, config.seed ^ 0x9e3779b9,
                                   builder_options);
  Rng knob_rng(config.seed ^ 0x51237);

  OptimizerOptions trial_options;
  trial_options.cancel = config.cancel;
  trial_options.deadline = config.deadline;

  for (int trial = 0; trial < config.max_trials; ++trial) {
    if (config.cancel.cancelled()) {
      return Status::Cancelled("query generation cancelled");
    }
    if (config.deadline.expired()) {
      return Status::DeadlineExceeded("query generation deadline passed");
    }
    Query candidate;
    if (config.method == GenerationMethod::kRandom) {
      candidate = random_gen.Generate();
    } else {
      const PatternNodePtr& pattern =
          patterns[static_cast<size_t>(trial) % patterns.size()];
      int extra = config.extra_ops > 0
                      ? static_cast<int>(
                            knob_rng.UniformInt(0, config.extra_ops))
                      : 0;
      candidate = instantiator.Instantiate(*pattern, extra);
    }
    ++outcome.trials;
    trial_counter->Increment();
    auto result = optimizer_->Optimize(candidate, trial_options);
    if (!result.ok()) {
      if (Interrupts(result.status())) return result.status();
      continue;
    }
    if (!ContainsAll(result->exercised_rules, targets)) continue;

    if (require_relevant) {
      // The rule is relevant iff turning it off changes the plan.
      relevance_probes_->Increment();
      OptimizerOptions options = trial_options;
      options.disabled_rules.insert(targets[0]);
      auto restricted = optimizer_->Optimize(candidate, options);
      if (!restricted.ok()) {
        if (Interrupts(restricted.status())) return restricted.status();
        continue;
      }
      if (PhysicalTreeEquals(*result->plan, *restricted->plan)) continue;
    }

    outcome.success = true;
    outcome.query = candidate;
    outcome.sql = GenerateSql(candidate);
    outcome.rule_set = result->exercised_rules;
    outcome.cost = result->cost;
    outcome.operator_count = CountOps(*candidate.root);
    break;
  }

  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (outcome.success) {
    successes_->Increment();
    trials_to_success_->Observe(static_cast<double>(outcome.trials));
  } else {
    failures_->Increment();
  }
  generation_seconds_->Observe(outcome.seconds);
  return outcome;
}

}  // namespace qtf
