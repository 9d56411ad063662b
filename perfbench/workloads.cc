// The three workloads. Each builds its inputs from the workload seed, sets
// up (several times, for a steady set-up figure), runs its timed phase for
// the requested seconds, checks every output against its known answer and
// returns what it measured. Timing is taken from outside: around calls to
// the framework's public functions, plus deltas of the metrics registry's
// existing qtf.* series.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "common/hash.h"
#include "net/server.h"
#include "net/wire.h"
#include "qgen/generators.h"
#include "qtf.h"

namespace perfbench {
namespace {

using namespace qtf;

// ROADMAP's baseline suite shape: k queries per target, PATTERN
// generation with extra random operators.
constexpr int kK = 3;
constexpr int kExtraOps = 4;
constexpr int kPairRules = 8;
// Set-up is repeated and its median reported: a single set-up of a few
// hundred milliseconds cannot be timed steadily. Each repetition is timed
// from its own start, so process start-up counts in none of them.
constexpr int kSetupRepeats = 5;
GenerationConfig SuiteConfig(uint64_t seed) {
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = kExtraOps;
  config.seed = seed;
  return config;
}

double Delta(const obs::MetricsSnapshot& before,
             const obs::MetricsSnapshot& after, const char* name) {
  return static_cast<double>(after.CounterValue(name) -
                             before.CounterValue(name));
}

double HistSum(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::MetricsSnapshot::HistogramValue* h = snap.FindHistogram(name);
  return h != nullptr ? h->sum : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics from registry deltas over the timed phase: counts and
/// seconds per timed operation, ratios as they are.
void AddRegistryLayers(const obs::MetricsSnapshot& b,
                       const obs::MetricsSnapshot& a, double ops,
                       std::map<std::string, double>* layer) {
  auto& m = *layer;
  const auto per_op = [&](const char* name) {
    return Ratio(Delta(b, a, name), ops);
  };
  const auto hist_per_op = [&](const char* name) {
    return Ratio(HistSum(a, name) - HistSum(b, name), ops);
  };
  m["optimizer.search_s"] = hist_per_op("qtf.optimizer.search_seconds");
  m["optimizer.searches"] = per_op("qtf.optimizer.searches");
  m["optimizer.saturated"] = per_op("qtf.optimizer.saturated");
  m["optimizer.memo_exprs"] = hist_per_op("qtf.optimizer.memo_exprs");
  m["optimizer.memo_groups"] = hist_per_op("qtf.optimizer.memo_groups");
  double applications = 0.0;
  for (const auto& [name, value] : a.counters) {
    if (name.rfind("qtf.optimizer.rule_apply.", 0) == 0) {
      applications += static_cast<double>(value - b.CounterValue(name));
    }
  }
  m["optimizer.rule_applications"] = Ratio(applications, ops);
  m["optimizer.invocations"] = per_op("qtf.optimizer.invocations");
  const double hits = Delta(b, a, "qtf.plan_cache.hits");
  const double misses = Delta(b, a, "qtf.plan_cache.misses");
  m["optimizer.plan_cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["optimizer.plan_cache_misses"] = Ratio(misses, ops);
  const double ihits = Delta(b, a, "qtf.interner.hits");
  const double imisses = Delta(b, a, "qtf.interner.misses");
  m["logical.interner_hit_ratio"] = Ratio(ihits, ihits + imisses);
  m["qgen.trials"] = per_op("qtf.qgen.trials.pattern");
  const double successes = Delta(b, a, "qtf.qgen.successes");
  m["qgen.success_ratio"] =
      Ratio(successes, successes + Delta(b, a, "qtf.qgen.failures"));
  m["compress.optimizer_calls"] = per_op("qtf.edge_cost.optimizer_calls");
  m["compress.monotonicity_pruned"] = per_op("qtf.compress.monotonicity_pruned");
  m["testing.plans_executed"] = per_op("qtf.correctness.plans_executed");
  m["testing.skipped_identical"] =
      per_op("qtf.correctness.skipped_identical_plans");
  m["exec.rows_produced"] = per_op("qtf.exec.rows_produced");
  m["exec.batches"] = per_op("qtf.exec.batches");
  m["exec.arena_bytes"] = per_op("qtf.exec.arena_bytes");
  const double ehits = Delta(b, a, "qtf.exec.eval_cache_hits");
  const double emisses = Delta(b, a, "qtf.exec.eval_cache_misses");
  m["exec.eval_cache_hit_ratio"] = Ratio(ehits, ehits + emisses);
  m["service.request_s"] = hist_per_op("qtf.service.request_seconds");
  m["service.request_errors"] = per_op("qtf.service.request_errors");
  m["service.sheds"] = per_op("qtf.service.sheds");
  m["net.bytes_in"] = per_op("qtf.service.bytes_in");
  m["net.bytes_out"] = per_op("qtf.service.bytes_out");
}

int64_t TpchRows(const RuleTestFramework& fw) {
  int64_t rows = 0;
  for (const std::string& table : fw.catalog().TableNames()) {
    auto data = fw.db().GetTableData(table);
    if (data.ok()) rows += (*data)->row_count();
  }
  return rows;
}

void AddSetupLayers(const std::vector<double>& create_s, int64_t tpch_rows,
                    WorkloadResult* result) {
  result->layer["testing.create_s"] = Median(create_s);
  result->layer["storage.tpch_rows"] = static_cast<double>(tpch_rows);
}

/// Why a correctness run of the built-in rules failed its check (an error,
/// a violation or a skipped validation); empty when it passed.
std::string ReportFailure(const Result<CorrectnessReport>& report) {
  if (!report.ok()) return report.status().ToString();
  if (report->violations.empty() && report->skipped_unavailable == 0) {
    return "";
  }
  return std::to_string(report->violations.size()) + " violations and " +
         std::to_string(report->skipped_unavailable) +
         " skipped validations on the built-in rules";
}

/// Records a failed operation or check.
void Fail(WorkloadResult* result, const std::string& what) {
  ++result->failed;
  result->check_failures.push_back(what);
}

/// Set-up's own outputs (warm-up verdicts, first validation, rule loading,
/// the corpus's in-process answers) count as one check.
void CountSetupCheck(WorkloadResult* result) {
  ++result->attempted;
  if (!result->check_failures.empty()) ++result->failed;
}

/// Exact values must repeat: the first set-up records them, and a later
/// set-up whose values differ fails the check.
void RecordExact(const std::map<std::string, double>& values,
                 WorkloadResult* result) {
  if (result->exact.empty()) {
    result->exact = values;
    return;
  }
  for (const auto& [name, value] : values) {
    const double first = result->exact[name];
    if (value != first) {
      result->check_failures.push_back(
          "exact metric " + name + " differs between set-ups: " +
          std::to_string(first) + " then " + std::to_string(value));
    }
  }
}

/// Memo searches run so far by `fw`'s optimizer.
double Searches(RuleTestFramework* fw) {
  return static_cast<double>(
      fw->metrics()->counter("qtf.optimizer.searches")->Value());
}

std::unique_ptr<RuleTestFramework> CreateFramework(int scale, Tracer* tracer) {
  RuleTestFramework::Options options;
  options.threads = 2;
  options.tpch.scale = scale;
  options.trace_sink = tracer;
  Span span(tracer, "testing.create");
  auto fw = RuleTestFramework::Create(std::move(options));
  QTF_CHECK(fw.ok()) << fw.status().ToString();
  return std::move(fw).value();
}

/// One suite verdict: generate k queries per target, compress with TOPK
/// (monotonicity on, the framework's pool), validate the assignment.
struct Verdict {
  TestSuite suite;
  CompressionSolution topk;
  /// Memo searches (and saturated ones) of generation plus TOPK.
  double build_searches = 0.0;
  double build_saturated = 0.0;
  double generate_s = 0.0;
  double topk_s = 0.0;
  double correctness_s = 0.0;
  std::string failure;  // empty when the verdict passed its checks
};

Verdict RunSuiteVerdict(RuleTestFramework* fw,
                        const std::vector<RuleTarget>& targets, uint64_t seed,
                        int64_t op, Tracer* tracer) {
  const obs::Histogram* search =
      fw->metrics()->histogram("qtf.optimizer.search_seconds");
  const obs::Counter* searches = fw->metrics()->counter("qtf.optimizer.searches");
  const obs::Counter* saturated =
      fw->metrics()->counter("qtf.optimizer.saturated");
  const int64_t searches0 = searches->Value();
  const int64_t saturated0 = saturated->Value();
  Verdict v;
  double t0 = Now();
  Result<TestSuite> suite = [&] {
    Span span(tracer, "qgen.suite_generate", op, search);
    return fw->suite_generator()->Generate(targets, kK, SuiteConfig(seed));
  }();
  v.generate_s = Now() - t0;
  if (!suite.ok()) {
    v.failure = "suite generation: " + suite.status().ToString();
    return v;
  }
  v.suite = *std::move(suite);
  EdgeCostProvider provider(fw->optimizer(), &v.suite);
  provider.set_thread_pool(fw->thread_pool());
  t0 = Now();
  Result<CompressionSolution> topk = [&] {
    Span span(tracer, "compress.topk", op, search);
    return CompressTopKIndependent(&provider, kK, true);
  }();
  v.topk_s = Now() - t0;
  if (!topk.ok()) {
    v.failure = "TOPK: " + topk.status().ToString();
    return v;
  }
  v.topk = *std::move(topk);
  v.build_searches = static_cast<double>(searches->Value() - searches0);
  v.build_saturated = static_cast<double>(saturated->Value() - saturated0);
  t0 = Now();
  Result<CorrectnessReport> report = [&] {
    Span span(tracer, "testing.correctness", op, search);
    return fw->runner()->Run(v.suite, v.topk.assignment);
  }();
  v.correctness_s = Now() - t0;
  v.failure = ReportFailure(report);
  return v;
}

std::vector<RuleTarget> AllSingletons(const RuleTestFramework& fw) {
  return fw.LogicalRuleSingletons(static_cast<int>(fw.LogicalRules().size()));
}

// The timed suites of pair_suite and singleton_rerun, and sql_service's
// corpus, are drawn at ROADMAP's baseline seed, not at --seed. Content
// swings far more across seeds than timing noise does: on a 4-vCPU VM,
// pair suites of seeds 1-5 took 4.9-10.5 s per verdict, one scale-100
// singleton suite took 22 s per validation against 0.4 s for another, and
// the corpus of seed 7 holds a statement that takes 10 s to optimize. No
// run short enough for the time budget averages that out, so a metric over
// seeded content would measure the seed, not the code. --seed drives
// sql_service's request stream and its wire-vs-in-process sample.
constexpr uint64_t kBaselineSeed = 2026;

}  // namespace

// --- pair_suite --------------------------------------------------------

WorkloadResult RunPairSuite(const Args& args, Tracer* tracer) {
  WorkloadResult result;
  std::unique_ptr<RuleTestFramework> fw;
  std::vector<double> create_s;
  // Warm-up: a fixed two-pair suite, so set-up does the same work on every
  // seed and the timed verdicts start on warm code paths.
  constexpr uint64_t kWarmupSeed = 0x5eedULL;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = Now();
    fw.reset();
    fw = CreateFramework(1, tracer);
    create_s.push_back(Now() - t0);
    std::vector<RuleTarget> warmup = fw->LogicalRulePairs(kPairRules);
    warmup.resize(2);
    const Verdict v = RunSuiteVerdict(fw.get(), warmup, kWarmupSeed, 0, nullptr);
    if (!v.failure.empty()) result.check_failures.push_back("warm-up: " + v.failure);
    result.setup_s.push_back(Now() - t0);
    RecordExact({{"warmup.searches", v.build_searches},
                 {"warmup.cost", v.topk.total_cost}},
                &result);
  }
  CountSetupCheck(&result);
  AddSetupLayers(create_s, TpchRows(*fw), &result);

  const std::vector<RuleTarget> pairs = fw->LogicalRulePairs(kPairRules);
  const obs::MetricsSnapshot before = fw->metrics()->Snapshot();
  const double start = Now();
  double last = 0.0;
  double generate_s = 0.0;
  double topk_s = 0.0;
  double correctness_s = 0.0;
  int i = 0;
  // Stop before a verdict that would run past --seconds.
  for (; i == 0 || Now() - start + last <= args.seconds; ++i) {
    // Every verdict searches cold: the suite is the same each time.
    fw->plan_cache()->Clear();
    const double t0 = Now();
    Verdict v = RunSuiteVerdict(fw.get(), pairs, kBaselineSeed, i + 1, tracer);
    last = Now() - t0;
    ++result.attempted;
    generate_s += v.generate_s;
    topk_s += v.topk_s;
    correctness_s += v.correctness_s;
    if (i == 0) {
      result.exact["suite.searches"] = v.build_searches;
      result.exact["suite.saturated"] = v.build_saturated;
      result.exact["suite.cost"] = v.topk.total_cost;
    } else if (v.failure.empty() &&
               (result.exact["suite.searches"] != v.build_searches ||
                result.exact["suite.saturated"] != v.build_saturated ||
                result.exact["suite.cost"] != v.topk.total_cost)) {
      v.failure = "a repeated verdict's searches, saturations or suite cost "
                  "differ from the first";
    }
    if (!v.failure.empty()) {
      Fail(&result, "pair verdict: " + v.failure);
      continue;
    }
    result.op_ms.push_back(last * 1e3);
  }
  result.timed_s = Now() - start;
  result.peak_rss_mb = PeakRssMb();
  const double ops = i;
  AddRegistryLayers(before, fw->metrics()->Snapshot(), ops, &result.layer);
  result.layer["qgen.generate_s"] = generate_s / ops;
  result.layer["compress.topk_s"] = topk_s / ops;
  result.layer["testing.correctness_s"] = correctness_s / ops;
  result.layer["compress.suite_cost"] = result.exact["suite.cost"];
  result.layer["optimizer.truncated_share"] =
      Ratio(result.exact["suite.saturated"], result.exact["suite.searches"]);
  return result;
}

// --- singleton_rerun ---------------------------------------------------

WorkloadResult RunSingletonRerun(const Args& args, Tracer* tracer) {
  // Scale 100 makes executing and comparing plans the dominant cost.
  constexpr int kScale = 100;
  WorkloadResult result;
  std::unique_ptr<RuleTestFramework> fw;
  Verdict built;
  std::vector<double> create_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = Now();
    fw.reset();
    fw = CreateFramework(kScale, tracer);
    create_s.push_back(Now() - t0);
    // The cold suite build, TOPK and the first validation.
    built = RunSuiteVerdict(fw.get(), AllSingletons(*fw), kBaselineSeed, 0,
                            tracer);
    if (!built.failure.empty()) {
      result.check_failures.push_back("singleton suite: " + built.failure);
      CountSetupCheck(&result);
      return result;
    }
    result.setup_s.push_back(Now() - t0);
    RecordExact({{"suite.searches", built.build_searches},
                 {"suite.saturated", built.build_saturated},
                 {"suite.cost", built.topk.total_cost}},
                &result);
  }
  CountSetupCheck(&result);
  AddSetupLayers(create_s, TpchRows(*fw), &result);
  result.layer["compress.suite_cost"] = built.topk.total_cost;
  result.layer["optimizer.truncated_share"] =
      Ratio(built.build_saturated, built.build_searches);

  // The timed loop: re-validate the compressed suite on the warm plan
  // cache, as a nightly regression run or the resident daemon would.
  const obs::Histogram* search =
      fw->metrics()->histogram("qtf.optimizer.search_seconds");
  const obs::MetricsSnapshot before = fw->metrics()->Snapshot();
  const double searches0 = Searches(fw.get());
  const double start = Now();
  double correctness_s = 0.0;
  double last = 0.0;
  int64_t op = 1;
  for (; op == 1 || Now() - start + last <= args.seconds; ++op) {
    const double t0 = Now();
    Result<CorrectnessReport> report = [&] {
      Span span(tracer, "testing.correctness", op, search);
      return fw->runner()->Run(built.suite, built.topk.assignment);
    }();
    last = Now() - t0;
    correctness_s += last;
    ++result.attempted;
    const std::string failure = ReportFailure(report);
    if (!failure.empty()) {
      Fail(&result, "singleton re-validation: " + failure);
      continue;
    }
    result.op_ms.push_back(last * 1e3);
  }
  result.timed_s = Now() - start;
  result.timed_searches = Searches(fw.get()) - searches0;
  result.peak_rss_mb = PeakRssMb();
  const double ops = static_cast<double>(op - 1);
  AddRegistryLayers(before, fw->metrics()->Snapshot(), ops, &result.layer);
  result.layer["testing.correctness_s"] = correctness_s / ops;

  // ROADMAP's baseline table counts this suite's build at TPC-H scale 1,
  // where it runs one search fewer than at scale 100 (the costs differ).
  // Build it there too, untimed, so the report can be tied to the table.
  fw.reset();
  fw = CreateFramework(1, nullptr);
  ++result.attempted;
  const Verdict baseline =
      RunSuiteVerdict(fw.get(), AllSingletons(*fw), kBaselineSeed, 0, nullptr);
  if (!baseline.failure.empty()) {
    Fail(&result, "singleton suite at scale 1: " + baseline.failure);
  }
  result.exact["baseline.searches"] = baseline.build_searches;
  result.exact["baseline.saturated"] = baseline.build_saturated;
  return result;
}

// --- sql_service -------------------------------------------------------

namespace {

constexpr int kStatementsPerRule = 10;
constexpr int kClients = 2;
constexpr double kOptimizeShare = 0.7;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// PATTERN instantiations of every logical rule's pattern, rendered as SQL.
std::vector<std::string> BuildCorpus(RuleTestFramework* fw, uint64_t seed) {
  std::vector<std::string> corpus;
  std::set<std::string> seen;
  TreeBuilderOptions options;
  options.interner = fw->interner();
  for (RuleId id : fw->LogicalRules()) {
    PatternInstantiator instantiator(&fw->catalog(), Mix64(seed ^ Mix64(id)),
                                     options);
    for (int i = 0; i < kStatementsPerRule; ++i) {
      const Query query =
          instantiator.Instantiate(*fw->rules().rule(id).pattern(), i % 3);
      std::string sql = GenerateSql(query);
      if (seen.insert(sql).second) corpus.push_back(std::move(sql));
    }
  }
  return corpus;
}

struct SqlSetup {
  std::unique_ptr<service::RuleTestService> service;
  std::unique_ptr<net::ServiceServer> server;
  std::vector<std::string> corpus;
  /// Encoded in-process responses per statement: [parse-only, optimize].
  std::vector<std::array<std::string, 2>> expected;
  double load_s = 0.0;
  int loaded = 0;
  double create_s = 0.0;
};

service::SqlRequest MakeSqlRequest(const std::string& sql, bool optimize) {
  service::SqlRequest request;
  request.sql = sql;
  request.mode =
      optimize ? service::SqlMode::kOptimize : service::SqlMode::kParseOnly;
  return request;
}

SqlSetup SetUpSqlService(Tracer* tracer, WorkloadResult* result) {
  SqlSetup setup;
  service::RuleTestService::Config config;
  config.framework.trace_sink = tracer;
  const double c0 = Now();
  {
    Span span(tracer, "testing.create");
    auto created = service::RuleTestService::Create(std::move(config));
    QTF_CHECK(created.ok()) << created.status().ToString();
    setup.service = std::move(created).value();
  }
  setup.create_s = Now() - c0;
  net::ServerConfig server_config;
  server_config.workers = kClients;
  auto server = net::ServiceServer::Start(setup.service.get(), server_config);
  QTF_CHECK(server.ok()) << server.status().ToString();
  setup.server = std::move(server).value();

  service::LoadRulesRequest load;
  load.text = ReadFile("rules/dsl/ci_probe.qtr");
  const double l0 = Now();
  Result<service::LoadRulesResponse> loaded = [&] {
    Span span(tracer, "ruledsl.load");
    return setup.service->LoadRules(load);
  }();
  setup.load_s = Now() - l0;
  if (!loaded.ok() || loaded->compiled == 0) {
    result->check_failures.push_back(
        "LoadRules(rules/dsl/ci_probe.qtr): " +
        (loaded.ok() ? std::string("no rule compiled")
                     : loaded.status().ToString()));
  } else {
    setup.loaded = loaded->compiled;
  }

  setup.corpus = BuildCorpus(setup.service->framework(), kBaselineSeed);
  for (const std::string& sql : setup.corpus) {
    std::array<std::string, 2> expected;
    for (int optimize = 0; optimize < 2; ++optimize) {
      Result<service::SqlResponse> response =
          setup.service->Sql(MakeSqlRequest(sql, optimize == 1));
      if (!response.ok()) {
        result->check_failures.push_back("corpus statement rejected: " +
                                         response.status().ToString());
        continue;
      }
      expected[static_cast<size_t>(optimize)] =
          net::EncodeSqlResponse(*response);
    }
    setup.expected.push_back(std::move(expected));
  }
  return setup;
}

struct ClientLog {
  LatencyHistogram latency;
  /// The same samples split by the 1-second window they completed in.
  std::vector<LatencyHistogram> windows;
  int64_t attempted = 0;
  int64_t failed = 0;
  double busy_s = 0.0;  // summed latency of the completed requests
  std::string first_failure;
  /// Captured traffic (traced run only) for the codec replay.
  std::vector<std::pair<service::SqlRequest, service::SqlResponse>> captured;
};

void ClientLoop(const SqlSetup& setup, uint16_t port, uint64_t seed,
                int client_id, double start, double deadline, Tracer* tracer,
                ClientLog* log) {
  auto connected = client::ServiceClient::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    log->first_failure = connected.status().ToString();
    ++log->attempted;
    ++log->failed;
    return;
  }
  std::unique_ptr<client::ServiceClient> client = std::move(connected).value();
  std::mt19937_64 rng(Mix64(seed ^ Mix64(0xc11e47ULL + client_id)));
  std::uniform_int_distribution<size_t> pick(0, setup.corpus.size() - 1);
  std::bernoulli_distribution optimize(kOptimizeShare);
  constexpr size_t kCapture = 2000;
  int64_t op = 1 + static_cast<int64_t>(client_id) * (int64_t{1} << 40);
  while (Now() < deadline) {
    const size_t index = pick(rng);
    const bool opt = optimize(rng);
    const service::SqlRequest request =
        MakeSqlRequest(setup.corpus[index], opt);
    const double t0 = Now();
    Result<service::SqlResponse> response = [&] {
      Span span(tracer, "client.sql", op++);
      return client->Sql(request);
    }();
    const double dt = Now() - t0;
    ++log->attempted;
    if (!response.ok() ||
        net::EncodeSqlResponse(*response) != setup.expected[index][opt]) {
      ++log->failed;
      if (log->first_failure.empty()) {
        log->first_failure =
            response.ok() ? "response differs from the in-process answer"
                          : response.status().ToString();
      }
      continue;
    }
    log->latency.Add(dt * 1e3);
    const size_t window = std::min(log->windows.size() - 1,
                                   static_cast<size_t>(t0 + dt - start));
    log->windows[window].Add(dt * 1e3);
    log->busy_s += dt;
    if (tracer != nullptr && log->captured.size() < kCapture) {
      log->captured.emplace_back(request, *std::move(response));
    }
  }
}

/// Seeded sample of statements answered over the wire (raw frames) and in
/// process: the payloads must be byte-identical.
void CheckWireMatchesLocal(const SqlSetup& setup, uint64_t seed,
                           WorkloadResult* result) {
  auto connected =
      client::ServiceClient::Connect("127.0.0.1", setup.server->port());
  ++result->attempted;
  if (!connected.ok()) {
    ++result->failed;
    result->check_failures.push_back("connect: " +
                                     connected.status().ToString());
    return;
  }
  std::mt19937_64 rng(Mix64(seed ^ 0xb17eULL));
  std::uniform_int_distribution<size_t> pick(0, setup.corpus.size() - 1);
  constexpr int kSample = 32;
  for (int i = 0; i < kSample; ++i) {
    const service::SqlRequest request =
        MakeSqlRequest(setup.corpus[pick(rng)], i % 2 == 0);
    ++result->attempted;
    Result<net::Frame> frame = (*connected)->CallRaw(
        net::MessageType::kSqlRequest, net::EncodeSqlRequest(request));
    Result<service::ServiceResponse> local = setup.service->Execute(request);
    if (!frame.ok() || !local.ok() ||
        frame->type != net::MessageType::kSqlResponse ||
        frame->payload != net::EncodeSqlResponse(
                              std::get<service::SqlResponse>(*local))) {
      ++result->failed;
      result->check_failures.push_back(
          "wire and in-process answers differ for: " + request.sql.substr(0, 80));
    }
  }
}

}  // namespace

WorkloadResult RunSqlService(const Args& args, Tracer* tracer) {
  // One CPU for everything, before the server and clients start their
  // threads: each request hops from client to reader to worker and back,
  // and on one CPU no hop waits for another vCPU to wake. On a 4-vCPU VM,
  // in runs interleaved with each other, requests/s spread 0.20
  // ((Q3 - Q1) / median) with the process on two CPUs and 0.045 on one;
  // left to the scheduler on all four it swung 3x (5.4k-18.4k requests/s).
  PinToOneCpu();
  WorkloadResult result;
  SqlSetup setup;
  std::vector<double> create_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = Now();
    setup = SqlSetup{};
    setup = SetUpSqlService(tracer, &result);
    create_s.push_back(setup.create_s);
    result.setup_s.push_back(Now() - t0);
    // Set-up optimized every statement once; the timed phase searches none.
    const obs::MetricsSnapshot warm =
        setup.service->framework()->metrics()->Snapshot();
    RecordExact({{"corpus.statements", static_cast<double>(setup.corpus.size())},
                 {"corpus.searches", static_cast<double>(warm.CounterValue(
                                         "qtf.optimizer.searches"))},
                 {"corpus.saturated", static_cast<double>(warm.CounterValue(
                                          "qtf.optimizer.saturated"))}},
                &result);
  }
  CountSetupCheck(&result);
  RuleTestFramework* fw = setup.service->framework();
  AddSetupLayers(create_s, TpchRows(*fw), &result);
  result.layer["ruledsl.load_s"] = setup.load_s;
  result.layer["ruledsl.loaded"] = setup.loaded;
  const obs::MetricsSnapshot before = fw->metrics()->Snapshot();
  result.layer["optimizer.truncated_share"] = Ratio(
      result.exact["corpus.saturated"], result.exact["corpus.searches"]);

  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(args.seconds)));
  std::vector<ClientLog> logs(kClients);
  for (ClientLog& log : logs) log.windows.resize(windows);
  const double start = Now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, std::cref(setup), setup.server->port(),
                           args.seed, c, start, start + args.seconds, tracer,
                           &logs[static_cast<size_t>(c)]);
    }
    for (std::thread& t : clients) t.join();
  }
  result.timed_s = Now() - start;
  result.timed_searches = Searches(fw) - result.exact["corpus.searches"];
  result.peak_rss_mb = PeakRssMb();
  for (size_t w = 0; w < windows; ++w) {
    LatencyHistogram window;
    for (const ClientLog& log : logs) window.Merge(log.windows[w]);
    if (window.count() == 0) continue;
    // The last window may end early: the loop stops at --seconds.
    const double length = std::min(1.0, args.seconds - static_cast<double>(w));
    result.window_p50_ms.push_back(window.Quantile(0.5));
    result.window_ops_per_s.push_back(static_cast<double>(window.count()) / length);
  }
  double client_s = 0.0;
  LatencyHistogram latency;
  for (const ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    if (!log.first_failure.empty()) {
      result.check_failures.push_back("sql request: " + log.first_failure);
    }
    latency.Merge(log.latency);
    client_s += log.busy_s;
  }
  const double completed = static_cast<double>(latency.count());
  result.layer["ops"] = completed;
  AddRegistryLayers(before, fw->metrics()->Snapshot(), completed,
                    &result.layer);
  // The run is long enough that thousands of requests lie beyond the p99.
  result.layer["client.req_p99_ms"] = latency.Quantile(0.99);
  result.layer["client.beyond_p99"] = std::floor(0.01 * completed);
  const double server_s = result.layer["service.request_s"];
  result.layer["net.wire_ms_mean"] = (Ratio(client_s, completed) - server_s) * 1e3;

  CheckWireMatchesLocal(setup, args.seed, &result);

  if (tracer != nullptr) {
    // Replays that split the request path into the SQL and codec layers.
    sql::SqlFrontendOptions options;
    options.interner = fw->interner();
    sql::SqlFrontend frontend(&fw->catalog(), options);
    const double statements = static_cast<double>(setup.corpus.size());
    std::vector<double> parse_s;
    std::vector<double> render_s;
    for (int rep = 0; rep < 5; ++rep) {
      double parse = 0.0;
      double render = 0.0;
      for (const std::string& sql : setup.corpus) {
        double t0 = Now();
        Result<Query> bound = [&] {
          Span span(tracer, "sql.parse");
          return frontend.Parse(sql);
        }();
        parse += Now() - t0;
        if (!bound.ok()) {
          result.check_failures.push_back("corpus statement fails to parse");
          continue;
        }
        t0 = Now();
        const std::string rendered = [&] {
          Span span(tracer, "sql.render");
          return GenerateSql(*bound);
        }();
        render += Now() - t0;
        if (rendered != sql) {
          result.check_failures.push_back("render(parse(sql)) != sql");
        }
      }
      parse_s.push_back(parse / statements);
      render_s.push_back(render / statements);
    }
    result.layer["sql.parse_s"] = Median(parse_s);
    result.layer["sql.render_s"] = Median(render_s);
    std::vector<std::pair<service::SqlRequest, service::SqlResponse>> traffic;
    for (const ClientLog& log : logs) {
      traffic.insert(traffic.end(), log.captured.begin(), log.captured.end());
    }
    std::vector<double> encode_s;
    std::vector<double> decode_s;
    for (int rep = 0; rep < 5 && !traffic.empty(); ++rep) {
      std::vector<std::pair<std::string, std::string>> bytes;
      bytes.reserve(traffic.size());
      double t0 = Now();
      {
        Span span(tracer, "net.encode");
        for (const auto& [request, response] : traffic) {
          bytes.emplace_back(net::EncodeSqlRequest(request),
                             net::EncodeSqlResponse(response));
        }
      }
      encode_s.push_back((Now() - t0) / static_cast<double>(traffic.size()));
      t0 = Now();
      bool ok = true;
      {
        Span span(tracer, "net.decode");
        for (const auto& [request, response] : bytes) {
          ok = net::DecodeSqlRequest(request).ok() && ok;
          ok = net::DecodeSqlResponse(response).ok() && ok;
        }
      }
      decode_s.push_back((Now() - t0) / static_cast<double>(traffic.size()));
      if (!ok) {
        result.check_failures.push_back("captured traffic fails to decode");
      }
    }
    result.layer["net.encode_s"] = Median(encode_s);
    result.layer["net.decode_s"] = Median(decode_s);
    // Client-observed time split: server-side handling (parse and bind
    // estimated from the replay), the rest is wire and client codec.
    const double sql_s = result.layer["sql.parse_s"] * completed;
    const double service_s = server_s * completed;
    result.layer["share.sql"] = Ratio(sql_s, client_s);
    result.layer["share.service"] = Ratio(service_s - sql_s, client_s);
    result.layer["share.net"] = Ratio(client_s - service_s, client_s);
  }
  setup.server->Shutdown();
  return result;
}

// --- planted bugs --------------------------------------------------------

void CheckPlantedBugsCaught(std::vector<std::string>* failures) {
  struct Injection {
    const char* name;
    std::unique_ptr<Rule> (*make)();
    int extra_ops;
  };
  const Injection injections[] = {
      {"BuggyLojToJoin", &MakeBuggyLojToJoin, 2},
      {"BuggySelectPushBelowGroupBy", &MakeBuggySelectPushBelowGroupBy, 0},
      {"BuggyLojCommutativity", &MakeBuggyLojCommutativity, 1},
  };
  for (const Injection& injection : injections) {
    auto registry = MakeDefaultRuleRegistry();
    const RuleId bug = registry->Register(injection.make());
    RuleTestFramework::Options options;
    options.rules = std::move(registry);
    auto fw = RuleTestFramework::Create(std::move(options)).value();
    bool caught = false;
    for (uint64_t seed = 1; seed <= 8 && !caught; ++seed) {
      GenerationConfig config;
      config.method = GenerationMethod::kPattern;
      config.extra_ops = injection.extra_ops;
      config.seed = seed * 131;
      auto suite =
          fw->suite_generator()->Generate({RuleTarget{{bug}}}, 5, config);
      if (!suite.ok()) continue;
      auto report = fw->runner()->Run(*suite, suite->per_target);
      caught = report.ok() && !report->violations.empty();
    }
    if (!caught) {
      failures->push_back(std::string("planted bug not caught: ") +
                          injection.name);
    }
  }
}

}  // namespace perfbench
