// The rule DSL front to back: lexer/parser diagnostics (1-based line:col,
// kInvalidArgument, recursion caps), compiler binding errors, the Apply()
// output of every ported rule pinned to what its hand-written C++ original
// produced, the validity checks on rewrites of loaded rules, the default
// registry's ids, registry id stability under mixed builtin+DSL
// registration, and a seeded spec fuzzer proving malformed or
// machine-generated rules are rejected with diagnostics — never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "logical/validate.h"
#include "obs/metrics.h"
#include "optimizer/rule.h"
#include "pattern/pattern.h"
#include "ruledsl/compiler.h"
#include "ruledsl/fuzz.h"
#include "ruledsl/lexer.h"
#include "ruledsl/parser.h"
#include "rules/default_rules.h"
#include "rules/exploration_rules.h"
#include "service/service.h"
#include "storage/tpch.h"

namespace qtf {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

std::string DslDir() { return std::string(QTF_SOURCE_DIR) + "/rules/dsl/"; }

// ---- lexer ----

TEST(RuleDslLexerTest, TokenizesKeywordsPlaceholdersAndPunctuation) {
  auto tokens =
      ruledsl::LexRuleDsl("rule R {\n  match t: join(inner, $A, $B)\n}");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_GE(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[0].kind, ruledsl::TokenKind::kRule);
  EXPECT_EQ((*tokens)[1].kind, ruledsl::TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "R");
  EXPECT_EQ((*tokens)[3].kind, ruledsl::TokenKind::kMatch);
  // Positions are 1-based line:col; `match` opens line 2 column 3.
  EXPECT_EQ((*tokens)[3].line, 2);
  EXPECT_EQ((*tokens)[3].col, 3);
  const auto placeholder =
      std::find_if(tokens->begin(), tokens->end(), [](const auto& t) {
        return t.kind == ruledsl::TokenKind::kPlaceholder;
      });
  ASSERT_NE(placeholder, tokens->end());
  EXPECT_EQ(placeholder->text, "A");
  EXPECT_EQ(tokens->back().kind, ruledsl::TokenKind::kEnd);
}

TEST(RuleDslLexerTest, CommentsAreSkippedAndTrackLines) {
  auto tokens = ruledsl::LexRuleDsl(
      "-- line comment\n/* block\ncomment */ rule");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_EQ(tokens->size(), 2u);  // `rule` + end
  EXPECT_EQ((*tokens)[0].kind, ruledsl::TokenKind::kRule);
  EXPECT_EQ((*tokens)[0].line, 3);
}

TEST(RuleDslLexerTest, ErrorsCarryLineAndColumn) {
  {
    auto tokens = ruledsl::LexRuleDsl("rule R {\n  $1bad\n}");
    ASSERT_FALSE(tokens.ok());
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tokens.status().message().find("2:3"), std::string::npos)
        << tokens.status().ToString();
  }
  {
    auto tokens = ruledsl::LexRuleDsl("rule R { /* never closed");
    ASSERT_FALSE(tokens.ok());
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tokens.status().message().find("1:10"), std::string::npos)
        << tokens.status().ToString();
  }
  {
    auto tokens = ruledsl::LexRuleDsl("rule R ? {}");
    ASSERT_FALSE(tokens.ok());
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---- parser ----

TEST(RuleDslParserTest, ParsesAFullRule) {
  auto specs = ruledsl::ParseRuleSpecs(
      "rule LojToJoin {\n"
      "  match s: select(l: join(louter, $A, $B))\n"
      "  when rejects_null(pred(s), cols($B))\n"
      "  rewrite select(join(inner, $A, $B, pred(l)), pred(s))\n"
      "}\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 1u);
  const ruledsl::RuleSpec& spec = (*specs)[0];
  EXPECT_EQ(spec.name, "LojToJoin");
  EXPECT_EQ(spec.pattern.kind, ruledsl::PatternSpec::Kind::kOp);
  EXPECT_EQ(spec.pattern.op_kind, LogicalOpKind::kSelect);
  EXPECT_EQ(spec.pattern.label, "s");
  ASSERT_EQ(spec.guards.size(), 1u);
  ASSERT_EQ(spec.guards[0].size(), 1u);
  EXPECT_EQ(spec.guards[0][0].kind,
            ruledsl::GuardTermSpec::Kind::kRejectsNull);
  ASSERT_EQ(spec.rewrites.size(), 1u);
}

TEST(RuleDslParserTest, MissingRewriteIsRejectedWithPosition) {
  auto specs = ruledsl::ParseRuleSpecs(
      "rule NoBody {\n  match t: join(inner, $A, $B)\n}\n");
  ASSERT_FALSE(specs.ok());
  EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(specs.status().message().find("rewrite"), std::string::npos)
      << specs.status().ToString();
}

TEST(RuleDslParserTest, LabelOnAnyIsRejected) {
  auto specs = ruledsl::ParseRuleSpecs(
      "rule R {\n  match t: join(inner, x: any, $B)\n  rewrite $B\n}\n");
  ASSERT_FALSE(specs.ok());
  EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleDslParserTest, DeepNestingHitsTheRecursionCapNotTheStack) {
  std::string text = "rule Deep {\n  match s: ";
  for (int i = 0; i < 64; ++i) text += "select(";
  text += "$X";
  for (int i = 0; i < 64; ++i) text += ")";
  text += "\n  rewrite $X\n}\n";
  auto specs = ruledsl::ParseRuleSpecs(text);
  ASSERT_FALSE(specs.ok());
  EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(specs.status().message().find("depth"), std::string::npos)
      << specs.status().ToString();
}

// ---- compiler ----

TEST(RuleDslCompilerTest, CompilesToADslTaggedExplorationRule) {
  auto rules = ruledsl::CompileRuleDsl(
      "rule Twin {\n  match t: join(inner, $A, $B)\n"
      "  rewrite join(inner, $B, $A, pred(t))\n}\n");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 1u);
  const Rule& rule = *(*rules)[0];
  EXPECT_EQ(rule.name(), "Twin");
  EXPECT_EQ(rule.type(), RuleType::kExploration);
  EXPECT_EQ(rule.origin(), RuleOrigin::kDsl);
  EXPECT_EQ(rule.pattern()->ToString(), "Join[Inner](Any, Any)");
}

TEST(RuleDslCompilerTest, UnboundPlaceholderIsACompileError) {
  auto rules = ruledsl::CompileRuleDsl(
      "rule R {\n  match t: join(inner, $A, $B)\n"
      "  rewrite join(inner, $A, $C, pred(t))\n}\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rules.status().message().find("3:"), std::string::npos)
      << rules.status().ToString();
}

TEST(RuleDslCompilerTest, PredOnPredicatelessOperatorIsACompileError) {
  auto rules = ruledsl::CompileRuleDsl(
      "rule R {\n  match d: distinct($X)\n"
      "  rewrite select($X, pred(d))\n}\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleDslCompilerTest, IdsOnNonUnionLabelIsACompileError) {
  auto rules = ruledsl::CompileRuleDsl(
      "rule R {\n  match s: select($X)\n"
      "  rewrite unionall($X, $X, ids(s))\n}\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleDslCompilerTest, DuplicateNamesInOneBatchAreRejected) {
  auto rules = ruledsl::CompileRuleDsl(
      "rule Same { match t: join(inner, $A, $B) rewrite $A }\n"
      "rule Same { match t: join(inner, $A, $B) rewrite $B }\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rules.status().message().find("Same"), std::string::npos);
}

TEST(RuleDslCompilerTest, PlaceholderMatchRootIsRejected) {
  auto rules =
      ruledsl::CompileRuleDsl("rule R { match $X rewrite $X }");
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleDslCompilerTest, CompileErrorsCountOnTheMetric) {
  obs::MetricsRegistry metrics;
  ruledsl::CompileOptions options;
  options.metrics = &metrics;
  auto rules = ruledsl::CompileRuleDsl("rule Broken {", options);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(metrics.counter("qtf.dsl.compile_errors")->Value(), 1);
}

// ---- differential: every port's Apply output, pinned ----
//
// Each case applies one of the 15 ported rules, as the default registry
// compiles it, to a hand-built bound tree and demands valid outputs whose
// sorted TreeFingerprints equal literals recorded from the hand-written C++
// rule the port replaced, on the same tree. Guard-decline cases pin the
// empty output.

class RuleDslDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTpchDatabase(TpchConfig{}).value();
    registry_ = std::make_shared<ColumnRegistry>();
    nation_ = GetOp::Create(db_->catalog().GetTable("nation").value(),
                            registry_.get());
    region_ = GetOp::Create(db_->catalog().GetTable("region").value(),
                            registry_.get());
    customer_ = GetOp::Create(db_->catalog().GetTable("customer").value(),
                              registry_.get());
    orders_ = GetOp::Create(db_->catalog().GetTable("orders").value(),
                            registry_.get());
  }

  /// Applies the default registry's rule `name` to `bound` and demands
  /// valid output trees whose sorted fingerprints are `expected`.
  void ExpectOutputs(const std::string& name, const LogicalOpPtr& bound,
                     std::vector<uint64_t> expected) {
    const RuleId id = rules_->FindByName(name);
    ASSERT_GE(id, 0) << "no rule named " << name;
    const auto& rule = static_cast<const ExplorationRule&>(rules_->rule(id));
    std::vector<LogicalOpPtr> out;
    rule.Apply(*bound, &out);
    std::vector<uint64_t> prints;
    for (const LogicalOpPtr& op : out) {
      Status valid = ValidateTree(*op, *registry_);
      EXPECT_TRUE(valid.ok()) << name << ": " << valid.ToString();
      prints.push_back(TreeFingerprint(*op));
    }
    std::sort(prints.begin(), prints.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(prints, expected)
        << name << ": output diverges from the hand-written rule's";
  }

  ExprPtr NationRegionPred() {
    return Eq(Col(nation_->columns()[2], ValueType::kInt64),
              Col(region_->columns()[0], ValueType::kInt64));
  }
  ExprPtr CustomerNationPred() {
    return Eq(Col(customer_->columns()[2], ValueType::kInt64),
              Col(nation_->columns()[0], ValueType::kInt64));
  }
  ExprPtr OrdersCustomerPred() {
    return Eq(Col(orders_->columns()[1], ValueType::kInt64),
              Col(customer_->columns()[0], ValueType::kInt64));
  }
  ExprPtr NationOnlyPred() {
    return Eq(Col(nation_->columns()[0], ValueType::kInt64), LitInt(3));
  }
  ExprPtr RegionOnlyPred() {
    return Eq(Col(region_->columns()[0], ValueType::kInt64), LitInt(1));
  }

  std::unique_ptr<Database> db_;
  ColumnRegistryPtr registry_;
  std::shared_ptr<const GetOp> nation_, region_, customer_, orders_;
  std::unique_ptr<RuleRegistry> rules_ = MakeDefaultRuleRegistry();
};

TEST_F(RuleDslDifferentialTest, DefaultRegistryCompilesTheShippedSpecs) {
  // The registry compiles rules/dsl/{join,select,union}_rules.qtr from
  // text embedded at build time; each rule in the files is there, with
  // the file's pattern.
  int ported = 0;
  for (const char* file :
       {"join_rules.qtr", "select_rules.qtr", "union_rules.qtr"}) {
    auto rules = ruledsl::CompileRuleDsl(ReadFileOrDie(DslDir() + file));
    ASSERT_TRUE(rules.ok()) << file << ": " << rules.status().ToString();
    for (const std::unique_ptr<Rule>& rule : *rules) {
      const RuleId id = rules_->FindByName(rule->name());
      ASSERT_GE(id, 0) << rule->name();
      EXPECT_EQ(rules_->rule(id).pattern()->ToString(),
                rule->pattern()->ToString())
          << rule->name();
      ++ported;
    }
  }
  EXPECT_EQ(ported, 15);
}

TEST_F(RuleDslDifferentialTest, JoinCommutativity) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  ExpectOutputs("JoinCommutativity", join, {0xb21bca7c591c55d4});
  // Cross join: predicate stays null through the rewrite.
  auto cross =
      std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_, nullptr);
  ExpectOutputs("JoinCommutativity", cross, {0xb8f2efd3b8f220f5});
}

TEST_F(RuleDslDifferentialTest, JoinAssociativityLeft) {
  auto lower = std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_,
                                        CustomerNationPred());
  auto top = std::make_shared<JoinOp>(JoinKind::kInner, lower, region_,
                                      NationRegionPred());
  ExpectOutputs("JoinAssociativityLeft", top, {0x0b3c1c0684b4aaec});
  // All-null predicates (pure cross joins) reassociate too.
  auto cross_lower =
      std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_, nullptr);
  auto cross_top = std::make_shared<JoinOp>(JoinKind::kInner, cross_lower,
                                            region_, nullptr);
  ExpectOutputs("JoinAssociativityLeft", cross_top, {0x52959caf00e7542a});
}

TEST_F(RuleDslDifferentialTest, JoinAssociativityRight) {
  auto lower = std::make_shared<JoinOp>(JoinKind::kInner, customer_, nation_,
                                        CustomerNationPred());
  auto top = std::make_shared<JoinOp>(JoinKind::kInner, orders_, lower,
                                      OrdersCustomerPred());
  ExpectOutputs("JoinAssociativityRight", top, {0x3f9896013ef42dbe});
}

TEST_F(RuleDslDifferentialTest, LojToJoin) {
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  // Comparisons are null-rejecting, so this select kills padded rows.
  auto fires = std::make_shared<SelectOp>(loj, RegionOnlyPred());
  ExpectOutputs("LojToJoin", fires, {0x7cc12cf8b19d8e58});
  // A predicate over the preserved side keeps the outer join: no outputs.
  auto guarded = std::make_shared<SelectOp>(loj, NationOnlyPred());
  ExpectOutputs("LojToJoin", guarded, {});
}

TEST_F(RuleDslDifferentialTest, JoinLojAssocLeft) {
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  auto fires = std::make_shared<JoinOp>(JoinKind::kInner, customer_, loj,
                                        CustomerNationPred());
  ExpectOutputs("JoinLojAssocLeft", fires, {0x5c055dde2044bdb8});
  // Null top predicate qualifies vacuously (cross join).
  auto cross =
      std::make_shared<JoinOp>(JoinKind::kInner, customer_, loj, nullptr);
  ExpectOutputs("JoinLojAssocLeft", cross, {0x12efca4a434e47dc});
  // Top predicate reaching into C blocks the reassociation.
  auto blocked = std::make_shared<JoinOp>(
      JoinKind::kInner, customer_, loj,
      And(CustomerNationPred(), RegionOnlyPred()));
  ExpectOutputs("JoinLojAssocLeft", blocked, {});
}

TEST_F(RuleDslDifferentialTest, LojLojAssocRight) {
  auto lower = std::make_shared<JoinOp>(JoinKind::kLeftOuter, customer_,
                                        nation_, CustomerNationPred());
  auto fires = std::make_shared<JoinOp>(JoinKind::kLeftOuter, lower, region_,
                                        NationRegionPred());
  ExpectOutputs("LojLojAssocRight", fires, {0x90b1842328d841bf});
  // Null top predicate fails the nonnull guard.
  auto null_top =
      std::make_shared<JoinOp>(JoinKind::kLeftOuter, lower, region_, nullptr);
  ExpectOutputs("LojLojAssocRight", null_top, {});
  // Top predicate reaching into A fails refs_only(B, C).
  auto into_a = std::make_shared<JoinOp>(
      JoinKind::kLeftOuter, lower, region_,
      And(CustomerNationPred(), NationRegionPred()));
  ExpectOutputs("LojLojAssocRight", into_a, {});
}

TEST_F(RuleDslDifferentialTest, SelectMerge) {
  auto inner = std::make_shared<SelectOp>(nation_, NationOnlyPred());
  auto outer = std::make_shared<SelectOp>(
      inner, Eq(Col(nation_->columns()[2], ValueType::kInt64), LitInt(1)));
  ExpectOutputs("SelectMerge", outer, {0x1458b2ca4ad3c691});
}

TEST_F(RuleDslDifferentialTest, SelectSplit) {
  auto multi = std::make_shared<SelectOp>(
      nation_, And(NationOnlyPred(),
                   Eq(Col(nation_->columns()[2], ValueType::kInt64),
                      LitInt(1))));
  ExpectOutputs("SelectSplit", multi, {0x25220e90096083ef});
  // A single conjunct has nothing to split.
  auto single = std::make_shared<SelectOp>(nation_, NationOnlyPred());
  ExpectOutputs("SelectSplit", single, {});
}

TEST_F(RuleDslDifferentialTest, SelectIntoJoin) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  auto select = std::make_shared<SelectOp>(join, RegionOnlyPred());
  ExpectOutputs("SelectIntoJoin", select, {0x64d0e31c78f3fc6d});
  // Select over cross join becomes a real join.
  auto cross =
      std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_, nullptr);
  auto select_cross = std::make_shared<SelectOp>(cross, NationRegionPred());
  ExpectOutputs("SelectIntoJoin", select_cross, {0x5e0c5f97db73f0d8});
}

TEST_F(RuleDslDifferentialTest, SelectPushBelowJoinLeft) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  // Mixed conjuncts: the left-only one pushes, the join-wide one stays.
  auto mixed = std::make_shared<SelectOp>(
      join, And(NationOnlyPred(), NationRegionPred()));
  ExpectOutputs("SelectPushBelowJoinLeft", mixed, {0x85a81921864c865c});
  // Fully pushable: the residual select is elided.
  auto all_left = std::make_shared<SelectOp>(join, NationOnlyPred());
  ExpectOutputs("SelectPushBelowJoinLeft", all_left, {0x5dcc5987647094c9});
  // Nothing pushable: the rule declines.
  auto all_right = std::make_shared<SelectOp>(join, RegionOnlyPred());
  ExpectOutputs("SelectPushBelowJoinLeft", all_right, {});
}

TEST_F(RuleDslDifferentialTest, SelectPushBelowJoinRight) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  auto mixed = std::make_shared<SelectOp>(
      join, And(RegionOnlyPred(), NationRegionPred()));
  ExpectOutputs("SelectPushBelowJoinRight", mixed, {0x2e5726a7ec0f54b0});
  auto all_left = std::make_shared<SelectOp>(join, NationOnlyPred());
  ExpectOutputs("SelectPushBelowJoinRight", all_left, {});
}

TEST_F(RuleDslDifferentialTest, SelectPushBelowLojLeft) {
  auto loj = std::make_shared<JoinOp>(JoinKind::kLeftOuter, nation_, region_,
                                      NationRegionPred());
  auto pushable = std::make_shared<SelectOp>(loj, NationOnlyPred());
  ExpectOutputs("SelectPushBelowLojLeft", pushable, {0x2bc509b34ead7d4c});
  // Right-side conjuncts must NOT push through the outer join.
  auto right_side = std::make_shared<SelectOp>(loj, RegionOnlyPred());
  ExpectOutputs("SelectPushBelowLojLeft", right_side, {});
}

TEST_F(RuleDslDifferentialTest, SelectPushBelowDistinct) {
  auto distinct = std::make_shared<DistinctOp>(nation_);
  auto select = std::make_shared<SelectOp>(distinct, NationOnlyPred());
  ExpectOutputs("SelectPushBelowDistinct", select, {0xa0b5ebe00a54a24d});
}

TEST_F(RuleDslDifferentialTest, UnionAllCommutativity) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> out_ids;
  for (ColumnId id : region_->columns()) {
    out_ids.push_back(registry_->Allocate("u", registry_->TypeOf(id)));
  }
  auto u = std::make_shared<UnionAllOp>(region_, r2, out_ids);
  ExpectOutputs("UnionAllCommutativity", u, {0xdcff97afc78bb25a});
}

TEST_F(RuleDslDifferentialTest, UnionAllAssociativity) {
  auto r2 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  auto r3 = GetOp::Create(db_->catalog().GetTable("region").value(),
                          registry_.get());
  std::vector<ColumnId> inner_ids, outer_ids;
  for (ColumnId id : region_->columns()) {
    inner_ids.push_back(registry_->Allocate("i", registry_->TypeOf(id)));
  }
  for (ColumnId id : region_->columns()) {
    outer_ids.push_back(registry_->Allocate("o", registry_->TypeOf(id)));
  }
  auto inner = std::make_shared<UnionAllOp>(region_, r2, inner_ids);
  auto outer = std::make_shared<UnionAllOp>(inner, r3, outer_ids);
  ExpectOutputs("UnionAllAssociativity", outer, {0xe737b605e58ee263});
}

// ---- validity checks on rewrites of runtime-loaded rules ----

class RuleDslInstantiateTest : public RuleDslDifferentialTest {
 protected:
  /// Compiles the one rule of `text` and applies it to `bound`; every
  /// output must be a valid tree.
  std::vector<LogicalOpPtr> Apply(const std::string& text,
                                  const LogicalOpPtr& bound) {
    ruledsl::CompileOptions options;
    options.metrics = &metrics_;
    auto rules = ruledsl::CompileRuleDsl(text, options);
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    std::vector<LogicalOpPtr> out;
    if (!rules.ok()) return out;
    static_cast<const ExplorationRule&>(*(*rules)[0]).Apply(*bound, &out);
    for (const LogicalOpPtr& op : out) {
      Status valid = ValidateTree(*op, *registry_);
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
    return out;
  }

  int64_t Rejected() {
    return metrics_.counter("qtf.dsl.rejected")->Value();
  }

  obs::MetricsRegistry metrics_;
};

TEST_F(RuleDslInstantiateTest, SemiAndAntiJoinsOutputOnlyTheirLeftSide) {
  // The rewrite turns the inner join into a semi or anti join, which
  // outputs nation only: a select on region must be dropped and counted,
  // a select on nation kept.
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       NationRegionPred());
  int64_t rejected = 0;
  for (const char* kind : {"lsemi", "lanti"}) {
    const std::string text = std::string(
        "rule Narrow {\n"
        "  match s: select(j: join(inner, $A, $B))\n"
        "  rewrite select(join(") + kind + ", $A, $B, pred(j)), pred(s))\n}\n";
    EXPECT_TRUE(
        Apply(text, std::make_shared<SelectOp>(join, RegionOnlyPred()))
            .empty())
        << kind;
    EXPECT_EQ(Rejected(), ++rejected) << kind;
    EXPECT_EQ(
        Apply(text, std::make_shared<SelectOp>(join, NationOnlyPred())).size(),
        1u)
        << kind;
    EXPECT_EQ(Rejected(), rejected) << kind;
  }
}

TEST_F(RuleDslInstantiateTest, SemiJoinRightSideDoesNotOverlapItsSibling) {
  // The semi join's right side and the top join's right side are the same
  // region scan; the semi join outputs nation only, so the commuted join
  // has disjoint sides and is kept.
  auto semi = std::make_shared<JoinOp>(JoinKind::kLeftSemi, nation_, region_,
                                       NationRegionPred());
  auto top = std::make_shared<JoinOp>(JoinKind::kInner, semi, region_,
                                      NationRegionPred());
  EXPECT_EQ(Apply("rule CommuteOverSemi {\n"
                  "  match t: join(inner, s: join(lsemi, $A, $B), $C)\n"
                  "  rewrite join(inner, $C, join(lsemi, $A, $B, pred(s)),\n"
                  "               pred(t))\n}\n",
                  top)
                .size(),
            1u);
  EXPECT_EQ(Rejected(), 0);
}

// ---- registry id stability + pattern export under mixed order ----

TEST(RuleDslRegistryTest, IdsStayStableUnderMixedBuiltinAndDslRegistration) {
  RuleRegistry registry;
  const RuleId project = registry.Register(MakeSelectPushBelowProject());
  auto dsl = ruledsl::CompileRuleDsl(
      "rule DslProbe { match s: select(select($X)) "
      "rewrite select($X, pred(s)) }");
  ASSERT_TRUE(dsl.ok()) << dsl.status().ToString();
  ASSERT_EQ(dsl->size(), 1u);
  const RuleId probe = registry.Register(std::move((*dsl)[0]));
  const RuleId merge = registry.Register(MakeProjectMerge());

  // Ids are registration order, regardless of origin.
  EXPECT_EQ(project, 0);
  EXPECT_EQ(probe, 1);
  EXPECT_EQ(merge, 2);
  EXPECT_EQ(registry.FindByName("DslProbe"), probe);
  EXPECT_EQ(registry.rule(probe).origin(), RuleOrigin::kDsl);
  EXPECT_EQ(registry.rule(project).origin(), RuleOrigin::kBuiltin);

  // DSL rules participate in exploration-rule enumeration like builtins.
  std::vector<RuleId> exploration = registry.ExplorationRuleIds();
  EXPECT_NE(std::find(exploration.begin(), exploration.end(), probe),
            exploration.end());

  // Pattern export works identically for both origins: every pattern
  // renders and round-trips through the XML form with its name intact.
  for (const std::unique_ptr<Rule>& rule : registry.rules()) {
    EXPECT_FALSE(rule->pattern()->ToString().empty());
    std::string name;
    auto back =
        PatternFromXml(PatternToXml(*rule->pattern(), rule->name()), &name);
    ASSERT_TRUE(back.ok()) << rule->name();
    EXPECT_EQ(name, rule->name());
    EXPECT_EQ((*back)->ToString(), rule->pattern()->ToString())
        << rule->name();
  }
}

TEST(RuleDslRegistryTest, DefaultRegistryIdsArePinned) {
  // Every id of the default registry keeps its name, type, exported
  // pattern and builtin origin, wherever the rule is defined.
  struct Entry {
    const char* name;
    RuleType type;
    const char* pattern;
  };
  static const Entry kEntries[] = {
      {"JoinCommutativity", RuleType::kExploration, "Join[Inner](Any, Any)"},
      {"JoinAssociativityLeft", RuleType::kExploration,
       "Join[Inner](Join[Inner](Any, Any), Any)"},
      {"JoinAssociativityRight", RuleType::kExploration,
       "Join[Inner](Any, Join[Inner](Any, Any))"},
      {"SelectPushBelowJoinLeft", RuleType::kExploration,
       "Select(Join[Inner](Any, Any))"},
      {"SelectPushBelowJoinRight", RuleType::kExploration,
       "Select(Join[Inner](Any, Any))"},
      {"SelectPushBelowLojLeft", RuleType::kExploration,
       "Select(Join[LeftOuter](Any, Any))"},
      {"SelectMerge", RuleType::kExploration, "Select(Select(Any))"},
      {"SelectSplit", RuleType::kExploration, "Select(Any)"},
      {"SelectPushBelowProject", RuleType::kExploration,
       "Select(Project(Any))"},
      {"SelectPushBelowGroupBy", RuleType::kExploration,
       "Select(GroupByAgg(Any))"},
      {"SelectPushBelowUnionAll", RuleType::kExploration,
       "Select(UnionAll(Any, Any))"},
      {"ProjectMerge", RuleType::kExploration, "Project(Project(Any))"},
      {"GroupByPushBelowJoinLeft", RuleType::kExploration,
       "GroupByAgg(Join[Inner](Any, Any))"},
      {"GroupByPullAboveJoinLeft", RuleType::kExploration,
       "Join[Inner](GroupByAgg(Any), Any)"},
      {"LojToJoin", RuleType::kExploration,
       "Select(Join[LeftOuter](Any, Any))"},
      {"JoinLojAssocLeft", RuleType::kExploration,
       "Join[Inner](Any, Join[LeftOuter](Any, Any))"},
      {"LojLojAssocRight", RuleType::kExploration,
       "Join[LeftOuter](Join[LeftOuter](Any, Any), Any)"},
      {"SemiJoinToJoinDistinct", RuleType::kExploration,
       "Join[LeftSemi](Any, Any)"},
      {"JoinToSemiJoin", RuleType::kExploration,
       "Project(Join[Inner](Any, Any))"},
      {"AntiToLojNullFilter", RuleType::kExploration,
       "Join[LeftAnti](Any, Any)"},
      {"UnionAllCommutativity", RuleType::kExploration, "UnionAll(Any, Any)"},
      {"UnionAllAssociativity", RuleType::kExploration,
       "UnionAll(UnionAll(Any, Any), Any)"},
      {"DistinctElimination", RuleType::kExploration, "Distinct(Any)"},
      {"GroupByToDistinct", RuleType::kExploration, "GroupByAgg(Any)"},
      {"DistinctToGroupBy", RuleType::kExploration, "Distinct(Any)"},
      {"GroupByOnKeyElimination", RuleType::kExploration, "GroupByAgg(Any)"},
      {"SelectPushBelowDistinct", RuleType::kExploration,
       "Select(Distinct(Any))"},
      {"ProjectPushBelowUnionAll", RuleType::kExploration,
       "Project(UnionAll(Any, Any))"},
      {"SemiJoinCommuteSelect", RuleType::kExploration,
       "Select(Join[LeftSemi](Any, Any))"},
      {"SelectIntoJoin", RuleType::kExploration,
       "Select(Join[Inner](Any, Any))"},
      {"GetToScan", RuleType::kImplementation, "Get"},
      {"SelectToFilter", RuleType::kImplementation, "Select(Any)"},
      {"ProjectToCompute", RuleType::kImplementation, "Project(Any)"},
      {"JoinToNlJoin", RuleType::kImplementation, "Join(Any, Any)"},
      {"JoinToHashJoin", RuleType::kImplementation, "Join(Any, Any)"},
      {"GroupByToHashAggregate", RuleType::kImplementation, "GroupByAgg(Any)"},
      {"GroupByToStreamAggregate", RuleType::kImplementation,
       "GroupByAgg(Any)"},
      {"UnionAllToConcat", RuleType::kImplementation, "UnionAll(Any, Any)"},
      {"DistinctToHashDistinct", RuleType::kImplementation, "Distinct(Any)"},
  };
  std::unique_ptr<RuleRegistry> registry = MakeDefaultRuleRegistry();
  ASSERT_EQ(registry->size(), static_cast<int>(std::size(kEntries)));
  for (RuleId id = 0; id < registry->size(); ++id) {
    const Rule& rule = registry->rule(id);
    const Entry& entry = kEntries[id];
    EXPECT_EQ(rule.name(), entry.name) << "id " << id;
    EXPECT_EQ(rule.type(), entry.type) << entry.name;
    EXPECT_EQ(rule.pattern()->ToString(), entry.pattern) << entry.name;
    EXPECT_EQ(rule.origin(), RuleOrigin::kBuiltin) << entry.name;
  }
}

// ---- fuzzer: malformed and machine-generated specs never crash ----

TEST(RuleDslFuzzTest, GeneratedSpecsCompileOrFailWithInvalidArgument) {
  int compiled = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const std::string spec = ruledsl::GenerateRuleSpec(seed);
    auto rules = ruledsl::CompileRuleDsl(spec);
    if (rules.ok()) {
      ++compiled;
    } else {
      ++rejected;
      EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed << ": " << rules.status().ToString()
          << "\nspec:\n" << spec;
    }
  }
  // The generator is tuned so both paths stay exercised.
  EXPECT_GT(compiled, 10) << "generator produces too few valid specs";
  EXPECT_GT(rejected, 10) << "generator produces too few invalid specs";
}

TEST(RuleDslFuzzTest, MutatedPortedSpecsNeverCrashTheFrontend) {
  const std::string base = ReadFileOrDie(DslDir() + "select_rules.qtr");
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const std::string mutated = ruledsl::MutateRuleSpec(base, seed);
    auto rules = ruledsl::CompileRuleDsl(mutated);
    if (!rules.ok()) {
      EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed << ": " << rules.status().ToString();
    }
  }
}

TEST(RuleDslFuzzTest, SurvivingGeneratedRulesRunInTheOptimizerWithoutCrash) {
  // Load every generated rule that compiles into a live service, the way
  // the daemon loads rules, and drive full optimizations over it:
  // semantically invalid rewrite instantiations must be dropped
  // (qtf.dsl.rejected), never emitted as broken trees and never a crash.
  auto service =
      service::RuleTestService::Create(service::RuleTestService::Config{})
          .value();
  int loaded = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    service::LoadRulesRequest request;
    request.text = ruledsl::GenerateRuleSpec(seed);
    if (!ruledsl::CompileRuleDsl(request.text).ok()) continue;
    auto response = service->LoadRules(request);
    ASSERT_TRUE(response.ok()) << "seed " << seed << ": "
                               << response.status().ToString();
    ++loaded;
  }
  ASSERT_GT(loaded, 0);
  RuleTestFramework* framework = service->framework();
  EXPECT_GT(framework->metrics()->counter("qtf.dsl.loaded")->Value(), 0);

  // Targeted generation runs full optimizer searches, exercising every
  // registered rule — machine-made ones included.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GenerationConfig config;
    config.seed = seed;
    auto outcome = framework->generator()->Generate({0}, config);
    EXPECT_TRUE(outcome.ok()) << "seed " << seed << ": "
                              << outcome.status().ToString();
  }
}

}  // namespace
}  // namespace qtf
