#ifndef QTF_SERVICE_API_H_
#define QTF_SERVICE_API_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/deadline.h"
#include "qgen/generation.h"

namespace qtf {
namespace service {

/// Per-request governance knobs. Transport-neutral — the same struct is
/// populated by in-process callers and decoded off the wire, where
/// `cancel` does not travel: a remote caller's only stop is the deadline
/// (a request the server admitted runs to completion even after its
/// connection closes), local callers can also hand a real token.
struct RequestOptions {
  /// Whole-request deadline, seconds from admission; <= 0 falls back to
  /// RuleTestService::Config::default_deadline_seconds (0 there = none).
  /// Checked at request phase boundaries, and handed as one absolute
  /// deadline to the query-generation run and to a `Sql` request's
  /// optimize search, which stop when it passes. An expired deadline
  /// returns kDeadlineExceeded for the whole request. Compression and
  /// correctness searches see it only at phase boundaries: the memo caps
  /// bound them and `cancel` stops them.
  double deadline_seconds = 0.0;
  /// Checked by every phase of the request; a triggered token returns
  /// kCancelled. Never serialized.
  CancellationToken cancel;
};

/// Ask the resident framework for one query exercising `targets`
/// (singleton rule or rule pair) — TargetedQueryGenerator over the wire.
struct GenerateRequest {
  std::vector<RuleId> targets;
  GenerationMethod method = GenerationMethod::kPattern;
  int32_t max_trials = 2000;
  int32_t extra_ops = 0;
  uint64_t seed = 1;
  /// Singleton targets only: additionally require the rule to be relevant
  /// (disabling it changes the plan — paper Section 7).
  bool require_relevant = false;
  RequestOptions options;
};

/// Everything deterministic about a generation outcome. Wall-clock time is
/// deliberately absent — request latency lands in qtf.service.request_seconds
/// — so responses for the same seed are byte-identical across transports,
/// runs and machines.
struct GenerateResponse {
  bool success = false;
  std::string sql;
  std::vector<RuleId> rule_set;  // RuleSet(query), ascending
  double cost = 0.0;
  int32_t operator_count = 0;
  int32_t trials = 0;
};

/// How a CompressSuiteRequest / CorrectnessRequest builds its test suite:
/// first `n_rules` logical rules as singleton targets (or all pairs over
/// them), k queries per target.
struct SuiteSpec {
  int32_t n_rules = 4;
  bool pairs = false;
  int32_t k = 2;
  GenerationMethod method = GenerationMethod::kPattern;
  int32_t max_trials = 2000;
  int32_t extra_ops = 0;
  uint64_t seed = 1;
};

enum class CompressionAlgorithm : uint8_t {
  kBaseline = 0,
  kSetMultiCover = 1,
  kTopKIndependent = 2,
  kNoSharingMatching = 3,
};

/// Generate a suite per `suite` and compress it with `algorithm`.
struct CompressSuiteRequest {
  SuiteSpec suite;
  CompressionAlgorithm algorithm = CompressionAlgorithm::kTopKIndependent;
  /// TopKIndependent only (Section 5.3.1).
  bool exploit_monotonicity = true;
  RequestOptions options;
};

struct CompressSuiteResponse {
  int32_t suite_queries = 0;
  /// Per target: query indices into the generated suite.
  std::vector<std::vector<int32_t>> assignment;
  double total_cost = 0.0;
  int64_t optimizer_calls = 0;
  int32_t degraded_targets = 0;
  int32_t estimated_edges = 0;
};

/// Generate a suite, compress it, and execute the compressed assignment
/// for correctness — the paper's full pipeline as one request. Its fields,
/// and their wire layout, are CompressSuiteRequest's.
struct CorrectnessRequest : CompressSuiteRequest {};

struct ViolationSummary {
  int32_t target = -1;
  int32_t query = -1;
  std::string target_name;
  std::string sql;
  int64_t base_rows = 0;
  int64_t restricted_rows = 0;
};

struct CorrectnessResponse {
  int32_t plans_executed = 0;
  int32_t skipped_identical_plans = 0;
  int32_t skipped_unavailable = 0;
  std::vector<ViolationSummary> violations;
};

/// What to do with a SqlRequest after binding succeeds.
enum class SqlMode : uint8_t {
  /// Parse + bind only: report the bound tree's fingerprint, canonical SQL
  /// and operator count.
  kParseOnly = 0,
  /// Additionally optimize the bound tree (shared plan cache, deadline).
  kOptimize = 1,
  /// Additionally run the correctness pipeline on the bound query: every
  /// logical rule the optimizer exercised becomes a singleton target,
  /// validated by executing Plan(q) against Plan(q, ¬rule).
  kCorrectness = 2,
};

const char* SqlModeToString(SqlMode mode);

/// Submit a SQL statement (SQL frontend, src/sql/): the request that ships
/// a caller-chosen query over the wire and reports both of the paper's
/// testing extensions for it, RuleSet(q) (`exercised_rules`) and, with
/// `disabled_rules`, Plan(q, ¬R) (Section 2.3). The statement is parsed
/// and bound against the resident catalog; canonical renderer output
/// (GenerateSql) round-trips to the exact original tree.
struct SqlRequest {
  std::string sql;
  SqlMode mode = SqlMode::kParseOnly;
  RequestOptions options;
  /// Rules to disable during the search. kOptimize only; any other mode,
  /// or an id outside the registry, is kInvalidArgument.
  std::vector<RuleId> disabled_rules;
};

/// Deterministic like the other responses: no wall-clock fields, so the
/// same statement yields byte-identical payloads across transports. The
/// optimize fields are meaningful for kOptimize/kCorrectness, the
/// correctness fields for kCorrectness only; both groups are otherwise
/// zero/empty.
struct SqlResponse {
  /// TreeFingerprint of the bound logical tree — the round-trip witness:
  /// re-submitting `canonical_sql` reports the same fingerprint.
  uint64_t fingerprint = 0;
  std::string canonical_sql;
  int32_t operator_count = 0;
  // kOptimize / kCorrectness:
  double cost = 0.0;
  std::vector<RuleId> exercised_rules;  // ascending
  int32_t group_count = 0;
  int64_t expr_count = 0;
  bool budget_exhausted = false;
  // kCorrectness:
  int32_t plans_executed = 0;
  int32_t skipped_identical_plans = 0;
  int32_t skipped_unavailable = 0;
  std::vector<ViolationSummary> violations;
};

/// Load declarative .qtr rule specs (src/ruledsl/, docs/RULES.md) into the
/// resident registry, so a long-running daemon can ingest candidate rules
/// — hand-written or machine-generated — and immediately test them with
/// Sql/Correctness requests. Malformed or ill-bound specs are rejected
/// with their line:col diagnostics (kInvalidArgument); a name collision
/// with any resident rule is kAlreadyExists and nothing is registered
/// (each request is all-or-nothing).
struct LoadRulesRequest {
  /// Text of one or more .qtr rule specs.
  std::string text;
  /// Compile and validate only; report what would be registered.
  bool dry_run = false;
  RequestOptions options;
};

struct LoadRulesResponse {
  /// Ids assigned by the registry, in spec order (empty on dry_run).
  std::vector<RuleId> ids;
  /// Rule names in spec order.
  std::vector<std::string> names;
  /// Number of rules that compiled (== names.size()).
  int32_t compiled = 0;
};

/// List the resident rule registry — introspection for `qtfctl rules`.
struct ListRulesRequest {};

struct RuleInfo {
  RuleId id = -1;
  std::string name;
  /// RuleType as its wire value: 0 exploration, 1 implementation.
  uint8_t type = 0;
  /// PatternNode::ToString rendering, e.g. "Join[Inner](Any, Any)".
  std::string pattern;
  /// RuleOrigin as its wire value: 0 builtin, 1 dsl.
  uint8_t origin = 0;
};

struct ListRulesResponse {
  std::vector<RuleInfo> rules;
};

/// Snapshot of the resident framework's metrics registry — the service's
/// `/metrics` endpoint. Never shed by admission control, so the registry
/// stays observable exactly when the service is overloaded.
struct MetricsRequest {
  /// false (default): MetricsSnapshot JSON; true: the aligned text form.
  bool text = false;
};

struct MetricsResponse {
  std::string body;
};

/// The transport-neutral request/response surface: everything a transport
/// can carry, everything RuleTestService can execute.
/// Alternative i of one answers alternative i of the other.
using ServiceRequest =
    std::variant<GenerateRequest, CompressSuiteRequest, CorrectnessRequest,
                 SqlRequest, LoadRulesRequest, ListRulesRequest,
                 MetricsRequest>;
using ServiceResponse =
    std::variant<GenerateResponse, CompressSuiteResponse,
                 CorrectnessResponse, SqlResponse, LoadRulesResponse,
                 ListRulesResponse, MetricsResponse>;

}  // namespace service
}  // namespace qtf

#endif  // QTF_SERVICE_API_H_
