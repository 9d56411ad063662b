#include "service/service.h"

#include <chrono>
#include <mutex>
#include <string>
#include <utility>

#include "compress/compression.h"
#include "compress/edge_costs.h"
#include "compress/matching.h"
#include "ruledsl/compiler.h"
#include "sql/render.h"

namespace qtf {
namespace service {

const char* SqlModeToString(SqlMode mode) {
  switch (mode) {
    case SqlMode::kParseOnly:
      return "parse_only";
    case SqlMode::kOptimize:
      return "optimize";
    case SqlMode::kCorrectness:
      return "correctness";
  }
  return "?";
}

namespace {

/// Copies a correctness report's counters and violations onto a
/// CorrectnessResponse or SqlResponse, which carry the same four fields.
template <typename Response>
void ReportCorrectness(const CorrectnessReport& report, Response* response) {
  response->plans_executed = report.plans_executed;
  response->skipped_identical_plans = report.skipped_identical_plans;
  response->skipped_unavailable = report.skipped_unavailable;
  response->violations.reserve(report.violations.size());
  for (const CorrectnessViolation& violation : report.violations) {
    response->violations.push_back(ViolationSummary{
        violation.target, violation.query, violation.target_name,
        violation.sql, violation.base_rows, violation.restricted_rows});
  }
}

}  // namespace

/// Per-request governance state: the resolved deadline, the caller's
/// cancellation token, and the latency observation (recorded on
/// destruction, so shed-free error paths are measured like successes).
class RuleTestService::RequestScope {
 public:
  RequestScope(const RequestOptions& options, double default_deadline_seconds,
               obs::Histogram* latency)
      : cancel_(options.cancel),
        latency_(latency),
        start_(std::chrono::steady_clock::now()) {
    const double seconds = options.deadline_seconds > 0.0
                               ? options.deadline_seconds
                               : default_deadline_seconds;
    if (seconds > 0.0) deadline_ = Deadline::After(seconds);
  }

  ~RequestScope() {
    if (latency_ != nullptr) {
      latency_->Observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
    }
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  const CancellationToken& cancel() const { return cancel_; }
  /// The absolute request deadline, handed unchanged to generation runs
  /// and `Sql` optimize searches, so they stop when the request must.
  const Deadline& deadline() const { return deadline_; }

  /// Phase-boundary check: kDeadlineExceeded / kCancelled, or OK.
  Status Check(const char* phase) const {
    if (cancel_.cancelled()) {
      return Status::Cancelled(std::string("request cancelled before ") +
                               phase);
    }
    if (deadline_.expired()) {
      return Status::DeadlineExceeded(
          std::string("request deadline expired before ") + phase);
    }
    return Status::OK();
  }

 private:
  CancellationToken cancel_;
  Deadline deadline_;
  obs::Histogram* latency_;
  std::chrono::steady_clock::time_point start_;
};

RuleTestService::RuleTestService(std::unique_ptr<RuleTestFramework> framework,
                                 size_t max_queue_depth,
                                 double default_deadline_seconds)
    : framework_(std::move(framework)),
      default_deadline_seconds_(default_deadline_seconds),
      gate_(max_queue_depth, framework_->metrics()) {
  sql::SqlFrontendOptions frontend_options;
  frontend_options.interner = framework_->interner();
  frontend_options.metrics = framework_->metrics();
  frontend_ = std::make_unique<sql::SqlFrontend>(&framework_->catalog(),
                                                 frontend_options);
  obs::MetricsRegistry* metrics = framework_->metrics();
  requests_ = metrics->counter("qtf.service.requests");
  request_errors_ = metrics->counter("qtf.service.request_errors");
  // Counts the rules LoadRules registers.
  dsl_loaded_ = metrics->counter("qtf.dsl.loaded");
  statement_hits_ = metrics->counter("qtf.sql.statement_cache.hits");
  statement_misses_ = metrics->counter("qtf.sql.statement_cache.misses");
  request_seconds_ = metrics->histogram("qtf.service.request_seconds");
}

Result<std::unique_ptr<RuleTestService>> RuleTestService::Create(
    Config config) {
  if (config.max_queue_depth == 0) {
    return Status::InvalidArgument(
        "Config::max_queue_depth must be > 0 (a zero-depth admission "
        "queue would shed every request)");
  }
  if (config.default_deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "Config::default_deadline_seconds must be >= 0, got " +
        std::to_string(config.default_deadline_seconds));
  }
  QTF_ASSIGN_OR_RETURN(std::unique_ptr<RuleTestFramework> framework,
                       RuleTestFramework::Create(std::move(config.framework)));
  return std::unique_ptr<RuleTestService>(
      new RuleTestService(std::move(framework), config.max_queue_depth,
                          config.default_deadline_seconds));
}

Status RuleTestService::ValidateRuleIds(const std::vector<RuleId>& ids,
                                        const char* field) const {
  const int n = framework_->rules().size();
  for (RuleId id : ids) {
    if (id < 0 || id >= n) {
      return Status::InvalidArgument(
          std::string(field) + " holds rule id " + std::to_string(id) +
          ", valid ids are [0, " + std::to_string(n) + ")");
    }
  }
  return Status::OK();
}

Status RuleTestService::ValidateSuiteSpec(const SuiteSpec& spec) const {
  const int logical =
      static_cast<int>(framework_->LogicalRules().size());
  if (spec.n_rules < 1 || spec.n_rules > logical) {
    return Status::InvalidArgument(
        "SuiteSpec::n_rules must be in [1, " + std::to_string(logical) +
        "], got " + std::to_string(spec.n_rules));
  }
  if (spec.pairs && spec.n_rules < 2) {
    return Status::InvalidArgument(
        "SuiteSpec::pairs needs n_rules >= 2, got " +
        std::to_string(spec.n_rules));
  }
  if (spec.k < 1) {
    return Status::InvalidArgument("SuiteSpec::k must be >= 1, got " +
                                   std::to_string(spec.k));
  }
  if (spec.max_trials < 1) {
    return Status::InvalidArgument(
        "SuiteSpec::max_trials must be >= 1, got " +
        std::to_string(spec.max_trials));
  }
  if (spec.extra_ops < 0) {
    return Status::InvalidArgument(
        "SuiteSpec::extra_ops must be >= 0, got " +
        std::to_string(spec.extra_ops));
  }
  return Status::OK();
}

Result<GenerateResponse> RuleTestService::DoGenerate(
    const GenerateRequest& request) {
  if (request.targets.empty() || request.targets.size() > 2) {
    return Status::InvalidArgument(
        "GenerateRequest::targets must hold 1 rule id (singleton) or 2 "
        "(rule pair), got " + std::to_string(request.targets.size()));
  }
  QTF_RETURN_NOT_OK(
      ValidateRuleIds(request.targets, "GenerateRequest::targets"));
  if (request.require_relevant && request.targets.size() != 1) {
    return Status::InvalidArgument(
        "GenerateRequest::require_relevant is only meaningful for "
        "singleton targets");
  }
  if (request.max_trials < 1) {
    return Status::InvalidArgument(
        "GenerateRequest::max_trials must be >= 1, got " +
        std::to_string(request.max_trials));
  }
  if (request.extra_ops < 0) {
    return Status::InvalidArgument(
        "GenerateRequest::extra_ops must be >= 0, got " +
        std::to_string(request.extra_ops));
  }

  RequestScope scope(request.options, default_deadline_seconds_,
                     request_seconds_);
  QTF_RETURN_NOT_OK(scope.Check("generation"));
  GenerationConfig config;
  config.method = request.method;
  config.max_trials = request.max_trials;
  config.extra_ops = request.extra_ops;
  config.seed = request.seed;
  config.cancel = scope.cancel();
  config.deadline = scope.deadline();
  Result<GenerationOutcome> outcome =
      request.require_relevant
          ? framework_->generator()->GenerateRelevant(request.targets[0],
                                                      config)
          : framework_->generator()->Generate(request.targets, config);
  QTF_RETURN_NOT_OK(outcome.status());

  GenerateResponse response;
  response.success = outcome->success;
  response.sql = outcome->sql;
  response.rule_set.assign(outcome->rule_set.begin(),
                           outcome->rule_set.end());
  response.cost = outcome->cost;
  response.operator_count = outcome->operator_count;
  response.trials = outcome->trials;
  return response;
}

Status RuleTestService::BuildCompressedSuite(
    const CompressSuiteRequest& request, RequestScope* scope,
    TestSuite* suite, CompressionSolution* solution) {
  const SuiteSpec& spec = request.suite;
  QTF_RETURN_NOT_OK(ValidateSuiteSpec(spec));
  QTF_RETURN_NOT_OK(scope->Check("suite generation"));

  std::vector<RuleTarget> targets =
      spec.pairs ? framework_->LogicalRulePairs(spec.n_rules)
                 : framework_->LogicalRuleSingletons(spec.n_rules);
  GenerationConfig config;
  config.method = spec.method;
  config.max_trials = spec.max_trials;
  config.extra_ops = spec.extra_ops;
  config.seed = spec.seed;
  config.cancel = scope->cancel();
  config.deadline = scope->deadline();
  QTF_ASSIGN_OR_RETURN(
      *suite, framework_->suite_generator()->Generate(targets, spec.k,
                                                      config));

  QTF_RETURN_NOT_OK(scope->Check("compression"));
  EdgeCostProvider provider(framework_->optimizer(), suite);
  provider.set_thread_pool(framework_->thread_pool());
  provider.set_cancellation(scope->cancel());
  Result<CompressionSolution> compressed =
      Status::Internal("unreachable: unhandled compression algorithm");
  switch (request.algorithm) {
    case CompressionAlgorithm::kBaseline:
      compressed = CompressBaseline(&provider);
      break;
    case CompressionAlgorithm::kSetMultiCover:
      compressed = CompressSetMultiCover(&provider, spec.k);
      break;
    case CompressionAlgorithm::kTopKIndependent:
      compressed = CompressTopKIndependent(&provider, spec.k,
                                           request.exploit_monotonicity);
      break;
    case CompressionAlgorithm::kNoSharingMatching:
      compressed = CompressNoSharingMatching(&provider, spec.k);
      break;
  }
  QTF_RETURN_NOT_OK(compressed.status());
  *solution = *std::move(compressed);
  return Status::OK();
}

Result<CompressSuiteResponse> RuleTestService::DoCompressSuite(
    const CompressSuiteRequest& request) {
  RequestScope scope(request.options, default_deadline_seconds_,
                     request_seconds_);
  TestSuite suite;
  CompressionSolution solution;
  QTF_RETURN_NOT_OK(
      BuildCompressedSuite(request, &scope, &suite, &solution));
  CompressSuiteResponse response;
  response.suite_queries = static_cast<int32_t>(suite.queries.size());
  response.assignment.reserve(solution.assignment.size());
  for (const std::vector<int>& queries : solution.assignment) {
    response.assignment.emplace_back(queries.begin(), queries.end());
  }
  response.total_cost = solution.total_cost;
  response.optimizer_calls = solution.optimizer_calls;
  response.degraded_targets = solution.degraded_targets;
  response.estimated_edges = solution.estimated_edges;
  return response;
}

Result<CorrectnessResponse> RuleTestService::DoRunCorrectness(
    const CorrectnessRequest& request) {
  RequestScope scope(request.options, default_deadline_seconds_,
                     request_seconds_);
  TestSuite suite;
  CompressionSolution solution;
  QTF_RETURN_NOT_OK(
      BuildCompressedSuite(request, &scope, &suite, &solution));
  QTF_RETURN_NOT_OK(scope.Check("correctness execution"));
  QTF_ASSIGN_OR_RETURN(
      CorrectnessReport report,
      framework_->runner()->Run(suite, solution.assignment, scope.cancel()));
  CorrectnessResponse response;
  ReportCorrectness(report, &response);
  return response;
}

Result<SqlResponse> RuleTestService::DoSql(const SqlRequest& request) {
  if (request.sql.empty()) {
    return Status::InvalidArgument("SqlRequest::sql is empty");
  }
  if (!request.disabled_rules.empty() && request.mode != SqlMode::kOptimize) {
    return Status::InvalidArgument(
        std::string("SqlRequest::disabled_rules applies only in optimize "
                    "mode, got mode ") +
        SqlModeToString(request.mode));
  }
  QTF_RETURN_NOT_OK(
      ValidateRuleIds(request.disabled_rules, "SqlRequest::disabled_rules"));

  RequestScope scope(request.options, default_deadline_seconds_,
                     request_seconds_);
  QTF_RETURN_NOT_OK(scope.Check("sql parse"));
  QTF_ASSIGN_OR_RETURN(std::shared_ptr<const BoundStatement> statement,
                       BindStatement(request.sql));
  const Query& query = statement->query;

  SqlResponse response;
  // Both are memoized on the interned root, so a cache hit does no walk.
  response.fingerprint = TreeFingerprint(*query.root);
  response.canonical_sql = statement->canonical_sql;
  response.operator_count = CountOps(*query.root);
  if (request.mode == SqlMode::kParseOnly) return response;

  QTF_RETURN_NOT_OK(scope.Check("optimization"));
  OptimizerOptions options;
  options.disabled_rules.insert(request.disabled_rules.begin(),
                                request.disabled_rules.end());
  options.deadline = scope.deadline();
  options.cancel = scope.cancel();
  QTF_ASSIGN_OR_RETURN(OptimizeResult result,
                       framework_->optimizer()->Optimize(query, options));
  response.cost = result.cost;
  response.exercised_rules.assign(result.exercised_rules.begin(),
                                  result.exercised_rules.end());
  response.group_count = result.group_count;
  response.expr_count = result.expr_count;
  response.budget_exhausted = result.budget_exhausted;
  if (request.mode == SqlMode::kOptimize) return response;

  // kCorrectness: the caller's one query is the whole suite, and every
  // logical rule the optimizer exercised on it becomes a singleton target —
  // the runner then compares Plan(q) against Plan(q, ¬rule) for each.
  // Physical (implementation) rules are excluded the same way suite
  // generation excludes them: disabling one never changes logical results.
  const std::vector<RuleId> logical = framework_->LogicalRules();
  const RuleIdSet logical_set(logical.begin(), logical.end());
  TestSuite suite;
  TestCase test_case;
  test_case.query = query;
  test_case.sql = response.canonical_sql;
  test_case.rule_set = result.exercised_rules;
  test_case.cost = result.cost;
  suite.queries.push_back(std::move(test_case));
  for (RuleId rule : result.exercised_rules) {
    if (logical_set.count(rule) == 0) continue;
    suite.targets.push_back(RuleTarget{{rule}});
    suite.per_target.push_back({0});
  }

  QTF_RETURN_NOT_OK(scope.Check("correctness execution"));
  QTF_ASSIGN_OR_RETURN(
      CorrectnessReport report,
      framework_->runner()->Run(suite, suite.per_target, scope.cancel()));
  ReportCorrectness(report, &response);
  return response;
}

Result<std::shared_ptr<const RuleTestService::BoundStatement>>
RuleTestService::BindStatement(const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(statements_mutex_);
    auto it = statements_.find(sql);
    if (it != statements_.end()) {
      statement_hits_->Increment();
      return it->second;
    }
  }
  statement_misses_->Increment();
  QTF_ASSIGN_OR_RETURN(Query query, frontend_->Parse(sql));
  std::string canonical_sql = GenerateSql(query);
  const size_t bytes = sql.size() + canonical_sql.size();
  auto statement = std::make_shared<const BoundStatement>(
      BoundStatement{std::move(query), std::move(canonical_sql)});
  if (bytes > kStatementCacheBytes) return statement;

  std::lock_guard<std::mutex> lock(statements_mutex_);
  // A concurrent miss on the same text may have cached it first; its entry
  // is equal, so either serves.
  if (statements_.count(sql) > 0) return statement;
  if (statements_.size() >= framework_->plan_cache()->capacity() ||
      statement_bytes_ + bytes > kStatementCacheBytes) {
    statements_.clear();
    statement_bytes_ = 0;
  }
  statements_.emplace(sql, statement);
  statement_bytes_ += bytes;
  return statement;
}

Result<LoadRulesResponse> RuleTestService::DoLoadRules(
    const LoadRulesRequest& request) {
  if (request.text.empty()) {
    return Status::InvalidArgument("LoadRulesRequest::text is empty");
  }
  RequestScope scope(request.options, default_deadline_seconds_,
                     request_seconds_);
  QTF_RETURN_NOT_OK(scope.Check("rule compilation"));
  ruledsl::CompileOptions compile_options;
  compile_options.metrics = framework_->metrics();
  QTF_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<Rule>> rules,
      ruledsl::CompileRuleDsl(request.text, compile_options));
  // All-or-nothing: check every name before registering any (the compiler
  // already rejects duplicates within the batch).
  RuleRegistry* registry = framework_->mutable_rules();
  for (const std::unique_ptr<Rule>& rule : rules) {
    if (registry->FindByName(rule->name()) != -1) {
      return Status::AlreadyExists("LoadRulesRequest: rule name '" +
                                   rule->name() + "' is already registered");
    }
  }
  LoadRulesResponse response;
  response.compiled = static_cast<int32_t>(rules.size());
  response.names.reserve(rules.size());
  for (const std::unique_ptr<Rule>& rule : rules) {
    response.names.push_back(rule->name());
  }
  if (request.dry_run) return response;
  response.ids.reserve(rules.size());
  for (std::unique_ptr<Rule>& rule : rules) {
    response.ids.push_back(registry->Register(std::move(rule)));
    dsl_loaded_->Increment();
  }
  // Callers hold rules_mutex_ exclusively here (ExecuteAdmitted), so no
  // search is concurrently indexing the per-rule counter vectors.
  framework_->optimizer()->SyncRuleMetrics();
  // Cached results were computed under the smaller rule set; Plan(q) must
  // reflect the grown registry from the next request on.
  framework_->plan_cache()->Clear();
  return response;
}

Result<ListRulesResponse> RuleTestService::DoListRules(
    const ListRulesRequest& request) {
  (void)request;
  ListRulesResponse response;
  const RuleRegistry& registry = framework_->rules();
  response.rules.reserve(registry.rules().size());
  for (const std::unique_ptr<Rule>& rule : registry.rules()) {
    RuleInfo info;
    info.id = rule->id();
    info.name = rule->name();
    info.type = static_cast<uint8_t>(rule->type());
    info.pattern = rule->pattern()->ToString();
    info.origin = static_cast<uint8_t>(rule->origin());
    response.rules.push_back(std::move(info));
  }
  return response;
}

Result<MetricsResponse> RuleTestService::DoMetrics(
    const MetricsRequest& request) {
  obs::MetricsSnapshot snapshot = framework_->metrics()->Snapshot();
  MetricsResponse response;
  response.body = request.text ? snapshot.ToText() : snapshot.ToJson();
  return response;
}

Result<ServiceResponse> RuleTestService::ExecuteAdmitted(
    const ServiceRequest& request) {
  requests_->Increment();
  // Requests iterate the rule registry (optimizer searches, suite
  // generation); LoadRules appends to it. A readers-writer lock over the
  // whole execution keeps the append exclusive without serializing the
  // data plane.
  const bool exclusive = std::holds_alternative<LoadRulesRequest>(request);
  std::shared_lock<std::shared_mutex> shared(rules_mutex_, std::defer_lock);
  std::unique_lock<std::shared_mutex> unique(rules_mutex_, std::defer_lock);
  if (exclusive) {
    unique.lock();
  } else {
    shared.lock();
  }
  Result<ServiceResponse> result = std::visit(
      [this](const auto& typed) -> Result<ServiceResponse> {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, GenerateRequest>) {
          QTF_ASSIGN_OR_RETURN(GenerateResponse response, DoGenerate(typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, CompressSuiteRequest>) {
          QTF_ASSIGN_OR_RETURN(CompressSuiteResponse response,
                               DoCompressSuite(typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, CorrectnessRequest>) {
          QTF_ASSIGN_OR_RETURN(CorrectnessResponse response,
                               DoRunCorrectness(typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, SqlRequest>) {
          QTF_ASSIGN_OR_RETURN(SqlResponse response, DoSql(typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, LoadRulesRequest>) {
          QTF_ASSIGN_OR_RETURN(LoadRulesResponse response,
                               DoLoadRules(typed));
          return ServiceResponse(std::move(response));
        } else if constexpr (std::is_same_v<T, ListRulesRequest>) {
          QTF_ASSIGN_OR_RETURN(ListRulesResponse response,
                               DoListRules(typed));
          return ServiceResponse(std::move(response));
        } else {
          QTF_ASSIGN_OR_RETURN(MetricsResponse response, DoMetrics(typed));
          return ServiceResponse(std::move(response));
        }
      },
      request);
  if (!result.ok()) request_errors_->Increment();
  return result;
}

Result<ServiceResponse> RuleTestService::Execute(
    const ServiceRequest& request) {
  if (std::holds_alternative<MetricsRequest>(request)) {
    return ExecuteAdmitted(request);
  }
  AdmissionGate::Ticket ticket = gate_.TryEnter();
  if (!ticket) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(gate_.max_depth()) +
        " requests in flight); retry with backoff");
  }
  return ExecuteAdmitted(request);
}

Result<GenerateResponse> RuleTestService::Generate(
    const GenerateRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<GenerateResponse>(std::move(response));
}

Result<CorrectnessResponse> RuleTestService::RunCorrectness(
    const CorrectnessRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<CorrectnessResponse>(std::move(response));
}

Result<SqlResponse> RuleTestService::Sql(const SqlRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<SqlResponse>(std::move(response));
}

Result<LoadRulesResponse> RuleTestService::LoadRules(
    const LoadRulesRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<LoadRulesResponse>(std::move(response));
}

Result<ListRulesResponse> RuleTestService::ListRules(
    const ListRulesRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<ListRulesResponse>(std::move(response));
}

Result<MetricsResponse> RuleTestService::Metrics(
    const MetricsRequest& request) {
  QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
  return std::get<MetricsResponse>(std::move(response));
}

}  // namespace service
}  // namespace qtf
