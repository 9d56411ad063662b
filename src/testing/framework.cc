#include "testing/framework.h"

namespace qtf {

namespace {

/// Rejects option values that would otherwise be accepted silently and
/// misbehave later (a 0-capacity cache that caches nothing, a negative
/// thread count that underflows the pool). Messages name the field so a
/// remote caller can fix their request without reading source.
Status ValidateOptions(const RuleTestFramework::Options& options) {
  if (options.threads < 1) {
    return Status::InvalidArgument(
        "Options::threads must be >= 1, got " +
        std::to_string(options.threads));
  }
  if (options.plan_cache_capacity == 0) {
    return Status::InvalidArgument(
        "Options::plan_cache_capacity must be > 0 (a zero-capacity cache "
        "caches nothing; omit the field for the default)");
  }
  if (options.fault_injector.fault_probability < 0.0 ||
      options.fault_injector.fault_probability > 1.0) {
    return Status::InvalidArgument(
        "Options::fault_injector.fault_probability must be in [0, 1], got " +
        std::to_string(options.fault_injector.fault_probability));
  }
  if (options.tpch.scale < 1) {
    return Status::InvalidArgument(
        "Options::tpch.scale must be >= 1, got " +
        std::to_string(options.tpch.scale));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RuleTestFramework>> RuleTestFramework::Create(
    Options options) {
  QTF_RETURN_NOT_OK(ValidateOptions(options));
  auto framework =
      std::unique_ptr<RuleTestFramework>(new RuleTestFramework());
  framework->metrics_.set_trace_sink(options.trace_sink);
  if (options.fault_injector.seed != 0) {
    framework->fault_injector_ =
        std::make_unique<FaultInjector>(options.fault_injector);
    framework->fault_injector_->set_metrics(&framework->metrics_);
  }
  QTF_ASSIGN_OR_RETURN(framework->db_, MakeTpchDatabase(options.tpch));
  framework->registry_ = options.rules != nullptr
                             ? std::move(options.rules)
                             : MakeDefaultRuleRegistry();
  framework->optimizer_ = std::make_unique<Optimizer>(
      framework->registry_.get(), &framework->metrics_);
  framework->optimizer_->set_fault_injector(framework->fault_injector_.get());
  framework->plan_cache_ =
      std::make_unique<PlanCache>(options.plan_cache_capacity);
  framework->plan_cache_->set_metrics(&framework->metrics_);
  framework->optimizer_->set_plan_cache(framework->plan_cache_.get());
  framework->generator_ = std::make_unique<TargetedQueryGenerator>(
      &framework->db_->catalog(), framework->optimizer_.get());
  framework->suite_generator_ = std::make_unique<TestSuiteGenerator>(
      &framework->db_->catalog(), framework->optimizer_.get());
  framework->runner_ = std::make_unique<CorrectnessRunner>(
      framework->db_.get(), framework->optimizer_.get());
  if (options.threads > 1) {
    framework->pool_ = std::make_unique<ThreadPool>(options.threads);
    framework->suite_generator_->set_thread_pool(framework->pool_.get());
  }
  return framework;
}

std::vector<RuleTarget> RuleTestFramework::LogicalRulePairs(int n) const {
  std::vector<RuleId> logical = registry_->ExplorationRuleIds();
  QTF_CHECK(n <= static_cast<int>(logical.size()));
  std::vector<RuleTarget> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      pairs.push_back(RuleTarget{{logical[static_cast<size_t>(i)],
                                  logical[static_cast<size_t>(j)]}});
    }
  }
  return pairs;
}

std::vector<RuleTarget> RuleTestFramework::LogicalRuleSingletons(int n) const {
  std::vector<RuleId> logical = registry_->ExplorationRuleIds();
  QTF_CHECK(n <= static_cast<int>(logical.size()));
  std::vector<RuleTarget> singletons;
  for (int i = 0; i < n; ++i) {
    singletons.push_back(RuleTarget{{logical[static_cast<size_t>(i)]}});
  }
  return singletons;
}

}  // namespace qtf
