// Golden service corpus: the service's answers to a fixed set of requests,
// compared byte for byte against tests/service_golden.txt. A change that
// claims to leave behaviour alone — a rule moved between implementations,
// a faster search — is held to this file across the whole service surface:
// optimization (cost, memo shape, exercised rules), suite generation and
// compression (assignment, total cost, optimizer_calls), the correctness
// pipeline, and hand-written SQL.
//
// The requests, sent in this order to one fresh service:
//   - optimize the SQL of RandomQueryGenerator seeds 1..12, as is and with
//     JoinCommutativity (0), SelectMerge (6) or LojToJoin (14) disabled;
//   - CompressSuite over 8 singletons (k 2, seed 5) and over the pairs of 5
//     rules (k 1, seed 5) with TOPK, and the singletons with SMC;
//   - Correctness over 6 singletons (k 1, seed 3);
//   - three hand-written SQL statements, optimized;
//   - CompressSuite over 6 singletons (k 2, seed 11).
//
// One line per request: a label and the hex of the response's wire
// encoding, which holds no wall-clock field. The serial service's file
// ends with its optimizer invocation count; a threads=4 service must
// answer every request identically.
//
// On a mismatch the test writes what it computed to
// service_golden.actual.txt next to its binary and prints the path. To
// accept a change, copy that file over tests/service_golden.txt and review
// the diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/wire.h"
#include "qgen/generators.h"
#include "rules/default_rules.h"
#include "service/service.h"
#include "sql/render.h"

namespace qtf {
namespace {

constexpr RuleId kDisabledRules[] = {0, 6, 14};

const char* const kHandWrittenSql[] = {
    "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 25",
    "SELECT n_name, r_name FROM nation, region "
    "WHERE n_regionkey = r_regionkey AND n_nationkey < 10",
    "SELECT DISTINCT c_nationkey FROM customer WHERE c_custkey < 100",
};

std::unique_ptr<service::RuleTestService> MakeService(int threads) {
  service::RuleTestService::Config config;
  config.framework.threads = threads;
  return service::RuleTestService::Create(std::move(config)).value();
}

/// The optimize request for the query RandomQueryGenerator grows from
/// `seed`, sent as its SQL text.
service::SqlRequest SeededOptimize(const Catalog& catalog, uint64_t seed) {
  service::SqlRequest request;
  request.sql = GenerateSql(RandomQueryGenerator(&catalog, seed).Generate());
  request.mode = service::SqlMode::kOptimize;
  return request;
}

service::CompressSuiteRequest SuiteRequest(int n_rules, bool pairs, int k,
                                           uint64_t seed) {
  service::CompressSuiteRequest request;
  request.suite.n_rules = n_rules;
  request.suite.pairs = pairs;
  request.suite.k = k;
  request.suite.seed = seed;
  return request;
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

/// Sends the corpus to `service` in order; one "label hex" line per
/// request.
std::vector<std::string> AnswerCorpus(service::RuleTestService* service) {
  std::vector<std::string> lines;
  auto answer = [&](const std::string& label,
                    const service::ServiceRequest& request) {
    auto response = service->Execute(request);
    lines.push_back(label + " " +
                    (response.ok() ? Hex(net::EncodeResponse(*response))
                                   : "error=" + response.status().ToString()));
  };
  const Catalog& catalog = service->framework()->catalog();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string label = "sql_seed=" + std::to_string(seed);
    service::SqlRequest request = SeededOptimize(catalog, seed);
    answer(label, request);
    for (RuleId disabled : kDisabledRules) {
      request.disabled_rules = {disabled};
      answer(label + "_not=" + std::to_string(disabled), request);
    }
  }
  const service::CompressSuiteRequest singletons =
      SuiteRequest(/*n_rules=*/8, /*pairs=*/false, /*k=*/2, /*seed=*/5);
  answer("compress_singletons_topk", singletons);
  answer("compress_pairs_topk",
         SuiteRequest(/*n_rules=*/5, /*pairs=*/true, /*k=*/1, /*seed=*/5));
  service::CompressSuiteRequest smc = singletons;
  smc.algorithm = service::CompressionAlgorithm::kSetMultiCover;
  answer("compress_singletons_smc", smc);
  service::CorrectnessRequest correctness;
  static_cast<service::CompressSuiteRequest&>(correctness) =
      SuiteRequest(/*n_rules=*/6, /*pairs=*/false, /*k=*/1, /*seed=*/3);
  answer("correctness", correctness);
  for (size_t i = 0; i < std::size(kHandWrittenSql); ++i) {
    service::SqlRequest request;
    request.sql = kHandWrittenSql[i];
    request.mode = service::SqlMode::kOptimize;
    answer("sql_hand=" + std::to_string(i), request);
  }
  answer("compress_calls",
         SuiteRequest(/*n_rules=*/6, /*pairs=*/false, /*k=*/2, /*seed=*/11));
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Compares `actual` with the golden file's first `actual.size()` lines
/// (all of them when `whole_file`), reporting the first differences and
/// writing the computed lines next to the binary on a mismatch.
void ExpectGolden(const std::vector<std::string>& actual, bool whole_file) {
  const std::string golden_path =
      std::string(QTF_SOURCE_DIR) + "/tests/service_golden.txt";
  std::vector<std::string> want = SplitLines(ReadFile(golden_path));
  if (!whole_file && want.size() > actual.size()) want.resize(actual.size());
  if (actual == want) return;

  const std::string actual_path =
      std::string(QTF_BINARY_DIR) + "/service_golden.actual.txt";
  std::ofstream out(actual_path);
  for (const std::string& line : actual) out << line << "\n";
  int differing = 0;
  std::string first_diffs;
  for (size_t i = 0; i < std::max(want.size(), actual.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < actual.size() ? actual[i] : "(none)";
    if (w == g) continue;
    if (++differing <= 3) {
      first_diffs += "line " + std::to_string(i + 1) + "\n  golden: " + w +
                     "\n  actual: " + g + "\n";
    }
  }
  ADD_FAILURE() << differing << " of " << actual.size()
                << " lines differ from " << golden_path << "\n"
                << first_diffs << "computed corpus written to "
                << actual_path
                << "; to accept it, copy it over tests/service_golden.txt "
                   "and review the diff";
}

TEST(ServiceGoldenTest, SerialServiceMatchesGolden) {
  std::unique_ptr<service::RuleTestService> service = MakeService(1);
  std::vector<std::string> lines = AnswerCorpus(service.get());
  // optimizer_calls is the paper's cost unit; the serial service's own
  // invocation counter pins how many optimizations the corpus issued.
  lines.push_back(
      "optimizer_invocations " +
      std::to_string(service->framework()->optimizer()->invocation_count()));
  ExpectGolden(lines, /*whole_file=*/true);
}

TEST(ServiceGoldenTest, ParallelServiceMatchesGolden) {
  // Parallel generation may search one candidate twice, so only the
  // responses, not the invocation count, are pinned at threads=4.
  std::unique_ptr<service::RuleTestService> service = MakeService(4);
  ExpectGolden(AnswerCorpus(service.get()), /*whole_file=*/false);
}

TEST(ServiceGoldenTest, ServedPlanWithRuleDisabledMatchesStandaloneOptimize) {
  // The served Plan(q, ¬R) must be the one a standalone optimizer over the
  // default registry finds for the same query.
  std::unique_ptr<service::RuleTestService> service = MakeService(1);
  std::unique_ptr<RuleRegistry> rules = MakeDefaultRuleRegistry();
  Optimizer standalone(rules.get());
  const Catalog& catalog = service->framework()->catalog();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Query query = RandomQueryGenerator(&catalog, seed).Generate();
    for (RuleId disabled : kDisabledRules) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", disabled " +
                   std::to_string(disabled));
      service::SqlRequest request = SeededOptimize(catalog, seed);
      request.disabled_rules = {disabled};
      OptimizerOptions options;
      options.disabled_rules = {disabled};
      auto direct = standalone.Optimize(query, options);
      auto served = service->Sql(request);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cost, direct->cost);
      EXPECT_EQ(served->exercised_rules,
                std::vector<RuleId>(direct->exercised_rules.begin(),
                                    direct->exercised_rules.end()));
      EXPECT_EQ(served->group_count, direct->group_count);
      EXPECT_EQ(served->expr_count, direct->expr_count);
    }
  }
}

}  // namespace
}  // namespace qtf
