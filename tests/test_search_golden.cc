// Golden search corpus: the cost, RuleSet, memo size, truncation flags and
// plan of a fixed set of searches, compared byte for byte against
// tests/search_golden.txt. A change to the memo or the search that claims
// to leave plans alone is held to this file.
//
// The corpus:
//   - the seed-2026 singleton suite over all logical rules (k = 3, PATTERN,
//     4 extra operators, TPC-H scale 1): Plan(q), and Plan(q, ¬R) for every
//     logical R in RuleSet(q);
//   - the seed-2026 pair suite over the first 8 logical rules: Plan(q).
//
// One line per search: suite, query index, disabled rule id ('-' for
// none), FNV-1a of the canonical SQL, cost (%.17g), RuleSet, memo
// expression and group counts, the two truncation flags, and FNV-1a of the
// plan text.
//
// On a mismatch the test writes what it computed to
// search_golden.actual.txt next to its binary and prints the path. To
// accept a change, copy that file over tests/search_golden.txt and review
// the diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "optimizer/memo.h"
#include "qtf.h"

namespace qtf {
namespace {

constexpr uint64_t kSeed = 2026;
constexpr int kK = 3;
constexpr int kPairRules = 8;

GenerationConfig SuiteConfig() {
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.extra_ops = 4;
  config.seed = kSeed;
  return config;
}

/// One search of the corpus: a suite's query, with at most one rule off.
struct Search {
  const char* suite;
  int query;
  const TestCase* test_case;
  RuleId disabled;  // -1: none
};

std::string RuleList(const RuleIdSet& rules) {
  std::string out;
  for (RuleId id : rules) {
    if (!out.empty()) out += ",";
    out += std::to_string(id);
  }
  return out;
}

std::string Line(const Search& search, const Result<OptimizeResult>& result) {
  std::string line = std::string(search.suite) + " q=" +
                     std::to_string(search.query) + " not=" +
                     (search.disabled < 0 ? std::string("-")
                                          : std::to_string(search.disabled));
  char buf[64];
  std::snprintf(buf, sizeof(buf), " sql=%016" PRIx64,
                Fnv1a(search.test_case->sql));
  line += buf;
  if (!result.ok()) return line + " error=" + result.status().ToString();
  std::snprintf(buf, sizeof(buf), " cost=%.17g", result->cost);
  line += buf;
  line += " rules=" + RuleList(result->exercised_rules);
  line += " exprs=" + std::to_string(result->expr_count);
  line += " groups=" + std::to_string(result->group_count);
  line += " saturated=" + std::to_string(result->saturated ? 1 : 0);
  line += " budget_exhausted=" +
          std::to_string(result->budget_exhausted ? 1 : 0);
  std::snprintf(buf, sizeof(buf), " plan=%016" PRIx64,
                Fnv1a(PhysicalTreeToString(*result->plan, nullptr)));
  return line + buf;
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

/// Generates both suites once; the tests search their queries.
class SearchGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RuleTestFramework::Options options;
    options.threads = 4;
    fw_ = RuleTestFramework::Create(std::move(options)).value();
    const int n_logical = static_cast<int>(fw_->LogicalRules().size());
    auto singletons = fw_->suite_generator()->Generate(
        fw_->LogicalRuleSingletons(n_logical), kK, SuiteConfig());
    auto pairs = fw_->suite_generator()->Generate(
        fw_->LogicalRulePairs(kPairRules), kK, SuiteConfig());
    QTF_CHECK(singletons.ok()) << singletons.status().ToString();
    QTF_CHECK(pairs.ok()) << pairs.status().ToString();
    singletons_ = *std::move(singletons);
    pairs_ = *std::move(pairs);
  }
  static void TearDownTestSuite() { fw_.reset(); }

  static inline std::unique_ptr<RuleTestFramework> fw_;
  static inline TestSuite singletons_;
  static inline TestSuite pairs_;
};

TEST_F(SearchGoldenTest, CorpusMatchesGolden) {
  std::vector<Search> searches;
  for (size_t q = 0; q < singletons_.queries.size(); ++q) {
    const TestCase& test_case = singletons_.queries[q];
    searches.push_back({"singleton", static_cast<int>(q), &test_case, -1});
    for (RuleId id : test_case.rule_set) {
      if (fw_->rules().rule(id).type() != RuleType::kExploration) continue;
      searches.push_back({"singleton", static_cast<int>(q), &test_case, id});
    }
  }
  for (size_t q = 0; q < pairs_.queries.size(); ++q) {
    searches.push_back(
        {"pair", static_cast<int>(q), &pairs_.queries[q], -1});
  }

  // Every line comes from a search, not from the plan cache.
  PlanCacheDetachGuard cold(fw_->optimizer());
  std::vector<std::string> lines = ParallelFor(
      fw_->thread_pool(), static_cast<int>(searches.size()),
      [&](int i) {
        const Search& search = searches[static_cast<size_t>(i)];
        OptimizerOptions optimizer_options;
        if (search.disabled >= 0) {
          optimizer_options.disabled_rules.insert(search.disabled);
        }
        return Line(search, fw_->optimizer()->Optimize(
                                search.test_case->query, optimizer_options));
      });
  std::string actual;
  for (const std::string& line : lines) actual += line + "\n";

  const std::string golden_path =
      std::string(QTF_SOURCE_DIR) + "/tests/search_golden.txt";
  const std::string golden = ReadFile(golden_path);
  if (actual == golden) return;

  const std::string actual_path =
      std::string(QTF_BINARY_DIR) + "/search_golden.actual.txt";
  std::ofstream(actual_path) << actual;
  const std::vector<std::string> want = SplitLines(golden);
  const std::vector<std::string> got = SplitLines(actual);
  int differing = 0;
  std::string first_diffs;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < got.size() ? got[i] : "(none)";
    if (w == g) continue;
    if (++differing <= 5) {
      first_diffs += "line " + std::to_string(i + 1) + "\n  golden: " + w +
                     "\n  actual: " + g + "\n";
    }
  }
  ADD_FAILURE() << differing << " of " << got.size()
                << " lines differ from " << golden_path << " ("
                << want.size() << " lines)\n"
                << first_diffs << "computed corpus written to "
                << actual_path
                << "; to accept it, copy it over tests/search_golden.txt "
                   "and review the diff";
}

// The pair suite's query 2 fills the memo to kMaxTotalExprs: its search
// counts once under qtf.optimizer.truncated.total_exprs.
TEST_F(SearchGoldenTest, FullMemoIsCountedAsTotalExprsTruncation) {
  PlanCacheDetachGuard cold(fw_->optimizer());
  obs::Counter* total =
      fw_->metrics()->counter("qtf.optimizer.truncated.total_exprs");
  const int64_t before = total->Value();
  auto result = fw_->optimizer()->Optimize(pairs_.queries[2].query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->saturated);
  EXPECT_EQ(result->expr_count, Memo::kMaxTotalExprs);
  EXPECT_EQ(total->Value() - before, 1);
}

}  // namespace
}  // namespace qtf
