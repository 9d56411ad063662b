// qtfctl — command-line client for a running qtfd.
//
//   qtfctl [--host 127.0.0.1] [--port 7433] COMMAND
//
// Commands:
//   smoke     generate -> optimize (the generated SQL) -> compress -> sql
//             round trip -> metrics against the server, verifying each
//             response and that the server counted the requests
//             (qtf.service.requests > 0). Exit 0 iff all pass. This is what
//             the CI serving job runs.
//   sql SQL   parse, bind and (per --mode) optimize or correctness-test a
//             SQL statement on the server:
//               qtfctl sql "SELECT l_orderkey FROM lineitem" --mode optimize
//             --mode parse|optimize|correctness (default parse).
//   metrics   print the server's metrics snapshot (JSON).
//   load-rules FILE
//             compile the .qtr rule specs in FILE (src/ruledsl/) and
//             register them into the server's resident registry. With
//             --dry-run, compile and validate only. Prints the assigned
//             ids and names; compile errors come back with their
//             line:column diagnostics.
//   rules     list the server's rule registry: id, name, type, origin
//             (builtin|dsl) and the rendered match pattern.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.h"

namespace {

int Fail(const char* what, const qtf::Status& status) {
  std::fprintf(stderr, "qtfctl: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

/// Pulls the integer value of `"name":` out of the metrics JSON; -1 when
/// the metric is absent.
long MetricValue(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
}

int RunSmoke(qtf::client::ServiceClient* client) {
  // Generate: one query for the first logical rule.
  qtf::service::GenerateRequest generate;
  generate.targets = {0};
  generate.seed = 7;
  auto generated = client->Generate(generate);
  if (!generated.ok()) return Fail("generate", generated.status());
  if (!generated.value().success || generated.value().sql.empty()) {
    std::fprintf(stderr, "qtfctl: generate produced no query\n");
    return 1;
  }
  std::printf("generate: ok (%d operators, cost %.3f)\n",
              generated.value().operator_count, generated.value().cost);

  // Optimize: the generated query, sent back as SQL text.
  qtf::service::SqlRequest optimize;
  optimize.sql = generated.value().sql;
  optimize.mode = qtf::service::SqlMode::kOptimize;
  auto optimized = client->Sql(optimize);
  if (!optimized.ok()) return Fail("optimize", optimized.status());
  if (optimized.value().group_count <= 0) {
    std::fprintf(stderr, "qtfctl: optimize returned an empty plan\n");
    return 1;
  }
  std::printf("optimize: ok (%d groups, cost %.3f)\n",
              optimized.value().group_count, optimized.value().cost);

  // Compress: a small suite over 3 rules.
  qtf::service::CompressSuiteRequest compress;
  compress.suite.n_rules = 3;
  compress.suite.k = 1;
  compress.suite.seed = 5;
  auto compressed = client->CompressSuite(compress);
  if (!compressed.ok()) return Fail("compress", compressed.status());
  if (compressed.value().assignment.empty()) {
    std::fprintf(stderr, "qtfctl: compression produced no assignment\n");
    return 1;
  }
  std::printf("compress: ok (%d suite queries, total cost %.3f)\n",
              compressed.value().suite_queries, compressed.value().total_cost);

  // Sql: a hand-written statement through the SQL frontend; re-submitting
  // the canonical rendering must report the same fingerprint.
  qtf::service::SqlRequest sql;
  sql.sql = "SELECT l_orderkey, l_extendedprice FROM lineitem "
            "WHERE l_quantity < 25";
  auto parsed = client->Sql(sql);
  if (!parsed.ok()) return Fail("sql", parsed.status());
  if (parsed.value().fingerprint == 0 ||
      parsed.value().canonical_sql.empty()) {
    std::fprintf(stderr, "qtfctl: sql bound to an empty tree\n");
    return 1;
  }
  qtf::service::SqlRequest again;
  again.sql = parsed.value().canonical_sql;
  auto rebound = client->Sql(again);
  if (!rebound.ok()) return Fail("sql (canonical re-parse)", rebound.status());
  if (rebound.value().fingerprint != parsed.value().fingerprint) {
    std::fprintf(stderr,
                 "qtfctl: canonical SQL re-bound to fingerprint %llx, "
                 "expected %llx\n",
                 static_cast<unsigned long long>(rebound.value().fingerprint),
                 static_cast<unsigned long long>(parsed.value().fingerprint));
    return 1;
  }
  std::printf("sql: ok (%d operators, fingerprint %016llx)\n",
              parsed.value().operator_count,
              static_cast<unsigned long long>(parsed.value().fingerprint));

  // Metrics: the server must have counted the requests above.
  auto metrics = client->Metrics(qtf::service::MetricsRequest{});
  if (!metrics.ok()) return Fail("metrics", metrics.status());
  const long requests =
      MetricValue(metrics.value().body, "qtf.service.requests");
  if (requests <= 0) {
    std::fprintf(stderr,
                 "qtfctl: expected qtf.service.requests > 0, got %ld\n",
                 requests);
    return 1;
  }
  const long sql_parsed = MetricValue(metrics.value().body, "qtf.sql.parsed");
  if (sql_parsed <= 0) {
    std::fprintf(stderr, "qtfctl: expected qtf.sql.parsed > 0, got %ld\n",
                 sql_parsed);
    return 1;
  }
  std::printf("metrics: ok (qtf.service.requests = %ld, qtf.sql.parsed = "
              "%ld)\n",
              requests, sql_parsed);
  std::printf("smoke: all checks passed\n");
  return 0;
}

int RunSql(qtf::client::ServiceClient* client, const std::string& statement,
           qtf::service::SqlMode mode) {
  qtf::service::SqlRequest request;
  request.sql = statement;
  request.mode = mode;
  auto response = client->Sql(request);
  if (!response.ok()) return Fail("sql", response.status());
  const qtf::service::SqlResponse& r = response.value();
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(r.fingerprint));
  std::printf("operators: %d\n", r.operator_count);
  std::printf("canonical: %s\n", r.canonical_sql.c_str());
  if (mode != qtf::service::SqlMode::kParseOnly) {
    std::printf("cost: %.6f\n", r.cost);
    std::printf("memo: %d groups, %lld exprs%s\n", r.group_count,
                static_cast<long long>(r.expr_count),
                r.budget_exhausted ? " (truncated: deadline passed)" : "");
    std::string rules;
    for (qtf::RuleId id : r.exercised_rules) {
      if (!rules.empty()) rules += ", ";
      rules += std::to_string(id);
    }
    std::printf("exercised rules: [%s]\n", rules.c_str());
  }
  if (mode == qtf::service::SqlMode::kCorrectness) {
    std::printf("correctness: %d plans executed, %d identical skipped, "
                "%d unavailable, %zu violations\n",
                r.plans_executed, r.skipped_identical_plans,
                r.skipped_unavailable, r.violations.size());
    for (const qtf::service::ViolationSummary& v : r.violations) {
      std::printf("violation: target %d (%s): %lld rows vs %lld rows\n",
                  v.target, v.target_name.c_str(),
                  static_cast<long long>(v.base_rows),
                  static_cast<long long>(v.restricted_rows));
    }
    if (!r.violations.empty()) return 1;
  }
  return 0;
}

int RunLoadRules(qtf::client::ServiceClient* client, const std::string& path,
                 bool dry_run) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "qtfctl: cannot read \"%s\"\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  qtf::service::LoadRulesRequest request;
  request.text = std::move(text).str();
  request.dry_run = dry_run;
  auto response = client->LoadRules(request);
  if (!response.ok()) return Fail("load-rules", response.status());
  const qtf::service::LoadRulesResponse& r = response.value();
  for (size_t i = 0; i < r.names.size(); ++i) {
    if (dry_run) {
      std::printf("would load: %s\n", r.names[i].c_str());
    } else {
      std::printf("loaded: %s (id %d)\n", r.names[i].c_str(),
                  i < r.ids.size() ? r.ids[i] : -1);
    }
  }
  std::printf("%s: %d rule%s compiled\n", dry_run ? "dry-run" : "load-rules",
              r.compiled, r.compiled == 1 ? "" : "s");
  return 0;
}

int RunRules(qtf::client::ServiceClient* client) {
  auto response = client->ListRules(qtf::service::ListRulesRequest{});
  if (!response.ok()) return Fail("rules", response.status());
  std::printf("%4s  %-28s %-14s %-7s  %s\n", "id", "name", "type", "origin",
              "pattern");
  for (const qtf::service::RuleInfo& rule : response.value().rules) {
    std::printf("%4d  %-28s %-14s %-7s  %s\n", rule.id, rule.name.c_str(),
                rule.type == 0 ? "exploration" : "implementation",
                rule.origin == 0 ? "builtin" : "dsl", rule.pattern.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  std::string mode_name = "parse";
  bool dry_run = false;
  std::vector<std::string> positional;

  const char* usage =
      "usage: %s [--host IP] [--port N] "
      "{smoke | metrics | sql SQL [--mode parse|optimize|correctness] | "
      "load-rules FILE [--dry-run] | rules}\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--mode" && i + 1 < argc) {
      mode_name = argv[++i];
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] != '-' && positional.size() < 2) {
      positional.push_back(arg);
    } else {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
  }
  const std::string command = positional.empty() ? "" : positional[0];

  auto client_or = qtf::client::ServiceClient::Connect(host, port);
  if (!client_or.ok()) return Fail("connect", client_or.status());
  qtf::client::ServiceClient* client = client_or.value().get();

  if (command == "smoke") return RunSmoke(client);
  if (command == "sql") {
    if (positional.size() != 2) {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
    qtf::service::SqlMode mode;
    if (mode_name == "parse") {
      mode = qtf::service::SqlMode::kParseOnly;
    } else if (mode_name == "optimize") {
      mode = qtf::service::SqlMode::kOptimize;
    } else if (mode_name == "correctness") {
      mode = qtf::service::SqlMode::kCorrectness;
    } else {
      std::fprintf(stderr, "qtfctl: unknown --mode \"%s\"\n",
                   mode_name.c_str());
      return 2;
    }
    return RunSql(client, positional[1], mode);
  }
  if (command == "load-rules") {
    if (positional.size() != 2) {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
    return RunLoadRules(client, positional[1], dry_run);
  }
  if (command == "rules") return RunRules(client);
  if (command == "metrics" || command.empty()) {
    auto metrics = client->Metrics(qtf::service::MetricsRequest{});
    if (!metrics.ok()) return Fail("metrics", metrics.status());
    std::printf("%s\n", metrics.value().body.c_str());
    return 0;
  }
  std::fprintf(stderr, "qtfctl: unknown command \"%s\"\n", command.c_str());
  return 2;
}
