#ifndef QTF_QGEN_GENERATION_H_
#define QTF_QGEN_GENERATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "logical/query.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "qgen/generators.h"

namespace qtf {

/// How to search for a query exercising the target rules.
enum class GenerationMethod {
  kRandom = 0,  // stochastic trial-and-error ([1][17]); the paper's baseline
  kPattern,     // rule-pattern instantiation (paper Section 3)
};

struct GenerationConfig {
  GenerationMethod method = GenerationMethod::kPattern;
  /// Give up after this many optimize() trials.
  int max_trials = 2000;
  /// Up to this many extra random operators are appended to each candidate
  /// (Section 2.3's knob; used to produce larger correctness-test queries
  /// with varied costs).
  int extra_ops = 0;
  /// PATTERN only: instantiation biases towards rule-precondition shapes
  /// (see TreeBuilderOptions). Disabled by the ablation benchmark.
  TreeBuilderOptions builder_options;
  uint64_t seed = 1;
  /// Checked between trials and passed into every candidate optimization;
  /// a triggered token makes Generate return kCancelled.
  CancellationToken cancel;
  /// Absolute deadline of the whole run (default: never), checked where
  /// `cancel` is and passed into every candidate optimization. Once it
  /// passes, Generate returns kDeadlineExceeded; a candidate whose search
  /// it truncated is costed from its truncated memo like any other trial.
  Deadline deadline;
};

/// Result of one targeted generation run.
struct GenerationOutcome {
  bool success = false;
  Query query;
  std::string sql;
  RuleIdSet rule_set;  // RuleSet(query)
  double cost = 0.0;   // Cost(query)
  int operator_count = 0;
  /// Trials (optimizer invocations on candidate queries) until success —
  /// the efficiency metric of Figures 8-9.
  int trials = 0;
  /// Wall-clock generation time — the metric of Figure 10.
  double seconds = 0.0;
};

/// Generates queries that exercise a given rule or rule pair, by either
/// method (the Query Generation component of Figure 2).
class TargetedQueryGenerator {
 public:
  /// `optimizer` is used to optimize candidates and read RuleSet(q);
  /// the catalog defines the fixed test database's schema. Generation
  /// accounting (trials per method, successes, relevance probes — see
  /// docs/observability.md) lands in the optimizer's metrics registry.
  TargetedQueryGenerator(const Catalog* catalog, Optimizer* optimizer)
      : catalog_(catalog), optimizer_(optimizer) {
    QTF_CHECK(catalog_ != nullptr && optimizer_ != nullptr);
    obs::MetricsRegistry* metrics = optimizer_->metrics();
    trials_random_ = metrics->counter("qtf.qgen.trials.random");
    trials_pattern_ = metrics->counter("qtf.qgen.trials.pattern");
    successes_ = metrics->counter("qtf.qgen.successes");
    failures_ = metrics->counter("qtf.qgen.failures");
    relevance_probes_ = metrics->counter("qtf.qgen.relevance_probes");
    trials_to_success_ = metrics->histogram("qtf.qgen.trials_to_success");
    generation_seconds_ = metrics->histogram("qtf.qgen.generation_seconds");
  }

  /// Searches for a query q with targets ⊆ RuleSet(q). `targets` holds one
  /// rule id (singleton) or two (rule pair; PATTERN uses pattern
  /// composition, Section 3.2).
  ///
  /// Running out of trials is NOT an error — that returns an outcome with
  /// `success == false` (the miss rate is itself an experimental result,
  /// Figure 8). The error arm is reserved for the run being interrupted:
  /// kCancelled when config.cancel fires mid-generation, kDeadlineExceeded
  /// once config.deadline has passed.
  Result<GenerationOutcome> Generate(const std::vector<RuleId>& targets,
                                     const GenerationConfig& config);

  /// Section 7 variant: additionally requires the rule to be *relevant* —
  /// disabling it changes the chosen plan. Only meaningful for singleton
  /// targets.
  Result<GenerationOutcome> GenerateRelevant(RuleId target,
                                             const GenerationConfig& config);

 private:
  Result<GenerationOutcome> RunTrials(
      const std::vector<RuleId>& targets, const GenerationConfig& config,
      const std::vector<PatternNodePtr>& patterns, bool require_relevant);

  const Catalog* catalog_;
  Optimizer* optimizer_;
  obs::Counter* trials_random_ = nullptr;
  obs::Counter* trials_pattern_ = nullptr;
  obs::Counter* successes_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* relevance_probes_ = nullptr;
  obs::Histogram* trials_to_success_ = nullptr;
  obs::Histogram* generation_seconds_ = nullptr;
};

}  // namespace qtf

#endif  // QTF_QGEN_GENERATION_H_
