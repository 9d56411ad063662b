#ifndef QTF_SERVICE_SERVICE_H_
#define QTF_SERVICE_SERVICE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "service/admission.h"
#include "service/api.h"
#include "sql/frontend.h"
#include "testing/framework.h"

namespace qtf {
namespace service {

/// The rule-testing framework as a multi-tenant service: one resident
/// RuleTestFramework executing plain request/response structs (service/api.h)
/// behind admission control, deadlines and cancellation. Callable
/// in-process (tests and embedders call the typed methods directly) and over
/// the wire identically — the TCP transport (src/net/) decodes a request,
/// runs it through Execute, and encodes whatever comes back, so a remote
/// call returns byte-identical payloads to a local one for the same seeds.
///
/// Residency is the point (ROADMAP aim 1, performance): the shared
/// PlanCache, NodeInterner and EvalProgramCache warm up across requests, so
/// a busy service answers repeat seeds from cache instead of re-searching.
///
/// Thread-safety: every method may be called concurrently. Requests execute
/// on the caller's thread (transports bring their own worker pool); shared
/// mutable state is confined to the framework's thread-safe components and
/// the mutex-guarded statement cache.
class RuleTestService {
 public:
  struct Config {
    /// The resident framework's configuration.
    RuleTestFramework::Options framework;
    /// Admission bound: the maximum number of requests accepted but
    /// unfinished at once. Requests beyond it are shed immediately with
    /// kResourceExhausted, never queued indefinitely (see docs/serving.md).
    /// Enforced for every transport through admission().
    size_t max_queue_depth = 128;
    /// Whole-request deadline for requests that carry none; <= 0 (the
    /// default) means none. Checked between request phases (suite
    /// generation, compression, correctness execution) and by query
    /// generation before every trial, so an expired deadline surfaces as
    /// kDeadlineExceeded; a `Sql` optimize search it cuts short returns
    /// its best plan so far (see RequestOptions).
    double default_deadline_seconds = 0.0;
  };

  /// Validates the configuration and builds the resident framework: a zero
  /// `max_queue_depth`, a negative `default_deadline_seconds` or an option
  /// RuleTestFramework::Create rejects returns kInvalidArgument naming the
  /// field.
  static Result<std::unique_ptr<RuleTestService>> Create(Config config);

  /// Typed entry points. Each admits through the gate (shedding with
  /// kResourceExhausted when max_queue_depth requests are in flight),
  /// applies the default deadline to a request that carries none, and
  /// executes.
  Result<GenerateResponse> Generate(const GenerateRequest& request);
  Result<CorrectnessResponse> RunCorrectness(
      const CorrectnessRequest& request);
  /// SQL text in, bound-tree facts (and optionally optimization /
  /// correctness results) out — the SQL frontend behind the service API.
  /// In kOptimize, `disabled_rules` makes it the remote Plan(q, ¬R) probe.
  /// A repeated statement text is served from the statement cache without
  /// being parsed, bound or rendered again (see BindStatement).
  Result<SqlResponse> Sql(const SqlRequest& request);
  /// Compile .qtr rule specs (src/ruledsl/) and register them into the
  /// resident registry — the ingestion path for hand-written or discovered
  /// rules (rule discovery itself is out of ROADMAP's scope). Registration
  /// invalidates the plan cache (cached results were computed under the
  /// smaller rule set) and extends the per-rule metric families.
  /// All-or-nothing: any compile error or name collision registers nothing.
  Result<LoadRulesResponse> LoadRules(const LoadRulesRequest& request);
  /// Introspect the resident registry (id, name, type, pattern, origin).
  Result<ListRulesResponse> ListRules(const ListRulesRequest& request);
  /// Metrics bypass admission entirely: the registry must stay observable
  /// exactly when the service is saturated and shedding.
  Result<MetricsResponse> Metrics(const MetricsRequest& request);

  /// Byte bound of the statement cache, counted per entry as the request
  /// text plus its canonical SQL. A statement larger than this is answered
  /// but never cached; an insert that would pass it empties the cache.
  static constexpr size_t kStatementCacheBytes = size_t{4} << 20;

  /// Variant entry point for transports and generic callers: admits (except
  /// MetricsRequest), then dispatches.
  Result<ServiceResponse> Execute(const ServiceRequest& request);

  /// As Execute, but the caller already holds an admission ticket — this is
  /// what a transport calls after shedding at frame-receipt time, so a
  /// request is never counted against the gate twice. MetricsRequest needs
  /// (and consumes) no ticket.
  Result<ServiceResponse> ExecuteAdmitted(const ServiceRequest& request);

  /// The admission gate transports shed through before queueing work.
  AdmissionGate* admission() { return &gate_; }
  /// The resident framework (shared caches, metrics registry, rules).
  RuleTestFramework* framework() { return framework_.get(); }
  obs::MetricsRegistry* metrics() { return framework_->metrics(); }

 private:
  /// Deadline and cancellation of one admitted request, plus its
  /// latency observation (qtf.service.request_seconds, counted on scope
  /// destruction so error paths are measured too).
  class RequestScope;

  /// A statement as the SQL frontend bound it, with its canonical SQL.
  /// Immutable once cached, so concurrent requests share one: binding
  /// allocates in the query's ColumnRegistry, and every later stage
  /// (optimizer, correctness runner, executor) only reads it.
  struct BoundStatement {
    Query query;
    std::string canonical_sql;
  };

  RuleTestService(std::unique_ptr<RuleTestFramework> framework,
                  size_t max_queue_depth, double default_deadline_seconds);

  /// The statement cache behind DoSql, keyed by the exact request text: a
  /// hit returns the shared entry; a miss parses, binds and renders, and
  /// caches the statement if it bound. Parse and bind errors are returned
  /// and never cached. Bounded in entries by the plan cache's capacity and
  /// in bytes by kStatementCacheBytes; an insert that would pass either
  /// bound first empties the whole cache. Binding depends on the catalog
  /// alone, so LoadRules leaves the cache as it is.
  Result<std::shared_ptr<const BoundStatement>> BindStatement(
      const std::string& sql);

  Status ValidateRuleIds(const std::vector<RuleId>& ids,
                         const char* field) const;
  Status ValidateSuiteSpec(const SuiteSpec& spec) const;
  /// Generates the suite and compresses it — the shared front half of
  /// CompressSuite and RunCorrectness. On success `suite` and `solution`
  /// are filled.
  Status BuildCompressedSuite(const CompressSuiteRequest& request,
                              RequestScope* scope, TestSuite* suite,
                              CompressionSolution* solution);

  Result<GenerateResponse> DoGenerate(const GenerateRequest& request);
  Result<CompressSuiteResponse> DoCompressSuite(
      const CompressSuiteRequest& request);
  Result<CorrectnessResponse> DoRunCorrectness(
      const CorrectnessRequest& request);
  Result<SqlResponse> DoSql(const SqlRequest& request);
  Result<LoadRulesResponse> DoLoadRules(const LoadRulesRequest& request);
  Result<ListRulesResponse> DoListRules(const ListRulesRequest& request);
  Result<MetricsResponse> DoMetrics(const MetricsRequest& request);

  std::unique_ptr<RuleTestFramework> framework_;
  const double default_deadline_seconds_;
  /// Shares the framework's catalog, interner and metrics; thread-safe, so
  /// one resident frontend serves every statement cache miss.
  std::unique_ptr<sql::SqlFrontend> frontend_;
  AdmissionGate gate_;
  /// Readers-writer lock over the resident rule registry: every request
  /// holds it shared for its whole execution (registry iteration inside
  /// the optimizer must not race a vector push_back), LoadRules holds it
  /// exclusive while registering. Uncontended in the common case — rule
  /// loading is rare control-plane traffic.
  std::shared_mutex rules_mutex_;
  /// Guards statements_ and statement_bytes_.
  std::mutex statements_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const BoundStatement>>
      statements_;
  size_t statement_bytes_ = 0;
  obs::Counter* requests_ = nullptr;        // qtf.service.requests
  obs::Counter* request_errors_ = nullptr;  // qtf.service.request_errors
  obs::Counter* dsl_loaded_ = nullptr;      // qtf.dsl.loaded
  obs::Counter* statement_hits_ = nullptr;    // qtf.sql.statement_cache.hits
  obs::Counter* statement_misses_ = nullptr;  // qtf.sql.statement_cache.misses
  obs::Histogram* request_seconds_ = nullptr;
};

}  // namespace service
}  // namespace qtf

#endif  // QTF_SERVICE_SERVICE_H_
