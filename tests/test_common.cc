// Tests for the common substrate: Status/Result, RNG determinism, string
// utilities, deadlines/cancellation, and the deterministic fault injector.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/str_util.h"

namespace qtf {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.message(), "missing thing");
  EXPECT_EQ(err.ToString(), "NotFound: missing thing");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kExecutionError, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  QTF_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(*good, 5);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PickOneCoversAllElements) {
  Rng rng(7);
  std::vector<int> items = {1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.PickOne(items));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(8);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(9), b(9);
  Rng fa = a.Fork(), fb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.UniformInt(0, 1 << 30), fb.UniformInt(0, 1 << 30));
  }
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StrUtilTest, SqlQuoteEscapesQuotes) {
  EXPECT_EQ(SqlQuote("plain"), "'plain'");
  EXPECT_EQ(SqlQuote("O'Brien"), "'O''Brien'");
  EXPECT_EQ(SqlQuote(""), "''");
}

TEST(StrUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
}

TEST(StrUtilTest, RepeatAndIndent) {
  EXPECT_EQ(Repeat("ab", 3), "ababab");
  EXPECT_EQ(Repeat("x", 0), "");
  EXPECT_EQ(Indent(2), "    ");
}

TEST(DeadlineTest, NeverAndExpiry) {
  Deadline never;
  EXPECT_TRUE(never.never());
  EXPECT_FALSE(never.expired());

  Deadline past = Deadline::After(-1.0);
  EXPECT_FALSE(past.never());
  EXPECT_TRUE(past.expired());

  Deadline future = Deadline::After(3600.0);
  EXPECT_FALSE(future.never());
  EXPECT_FALSE(future.expired());
}

TEST(CancellationTest, TokensShareTheirSourceFlag) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // copies observe the same flag
  EXPECT_TRUE(a.cancellable());
  EXPECT_FALSE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  source.Cancel();  // idempotent
  EXPECT_TRUE(source.cancelled());

  CancellationToken detached;
  EXPECT_FALSE(detached.cancellable());
  EXPECT_FALSE(detached.cancelled());
}

TEST(FaultInjectorTest, SeedZeroNeverFaultsAndCannotBeEnabled) {
  FaultInjector injector({/*seed=*/0, /*fault_probability=*/1.0});
  EXPECT_FALSE(injector.enabled());
  injector.set_enabled(true);  // coerced back off: seed 0 means disabled
  EXPECT_FALSE(injector.enabled());
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(injector.Probe(fault_sites::kPrefetchTask, key).ok());
  }
}

TEST(FaultInjectorTest, DecisionsArePureFunctionsOfSeedSiteKey) {
  FaultInjector::Config config;
  config.seed = 42;
  config.fault_probability = 0.5;
  FaultInjector a(config), b(config);
  int faults = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    bool fault = a.ShouldFault(fault_sites::kOptimizerApplyRule, key);
    EXPECT_EQ(fault, b.ShouldFault(fault_sites::kOptimizerApplyRule, key));
    faults += fault ? 1 : 0;
  }
  // Roughly half the keys fault at p = 0.5 (loose bounds, deterministic).
  EXPECT_GT(faults, 600);
  EXPECT_LT(faults, 1400);
  // Sites decorrelate: the same keys at another site fault differently.
  int agreements = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    agreements += a.ShouldFault(fault_sites::kOptimizerApplyRule, key) ==
                          a.ShouldFault(fault_sites::kExecutorNextBatch, key)
                      ? 1
                      : 0;
  }
  EXPECT_LT(agreements, 2000);
}

TEST(FaultInjectorTest, ProbeReturnsUnavailableExactlyWhenHashFires) {
  FaultInjector::Config config;
  config.seed = 7;
  config.fault_probability = 0.3;
  FaultInjector injector(config);
  for (uint64_t key = 0; key < 500; ++key) {
    Status status = injector.Probe(fault_sites::kPlanCacheGet, key);
    if (injector.ShouldFault(fault_sites::kPlanCacheGet, key)) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(IsTransient(status));
    } else {
      EXPECT_TRUE(status.ok());
    }
  }
  injector.set_enabled(false);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_TRUE(injector.Probe(fault_sites::kPlanCacheGet, key).ok());
  }
}

TEST(FaultInjectorTest, JitterIsDeterministicAndBounded) {
  FaultInjector::Config config;
  config.seed = 9;
  FaultInjector a(config), b(config);
  for (int attempt = 0; attempt < 4; ++attempt) {
    for (uint64_t key = 0; key < 100; ++key) {
      double fa = a.JitterFactor(key, attempt, 0.5);
      EXPECT_EQ(fa, b.JitterFactor(key, attempt, 0.5));
      EXPECT_GE(fa, 0.5);
      EXPECT_LE(fa, 1.5);
    }
  }
}

// Fault streams must not move: a chaos run replays the same faults on
// every build. Probe outcomes (F = fault) and jitter factors for fixed
// (seed, site, key), as the injector produced them when its hashes were
// private copies of common/hash.h's Mix64 and Fnv1a.
TEST(FaultInjectorTest, StreamsMatchRecordedValues) {
  struct Stream {
    uint64_t seed;
    const char* site;
    const char* outcomes;  // keys k * 0x9e3779b97f4a7c15 for k = 0..31
  };
  const Stream streams[] = {
      {7, fault_sites::kPlanCacheGet, ".F...F...FF.FF..FF..FFFFFF..F.F."},
      {7, fault_sites::kOptimizerApplyRule,
       "F...FFF.F.FFFFFF.F......FFFF.F.."},
      {7, fault_sites::kExecutorNextBatch,
       ".F.FF..FFFF.F......FF.FF..FF.F.F"},
      {7, fault_sites::kPrefetchTask, "FF........FF....FF...F.FF...FFFF"},
      {0x5eed2026, fault_sites::kPlanCacheGet,
       "FF.FF.F..FFFF..FFFF.F.F..FFFFFFF"},
      {0x5eed2026, fault_sites::kOptimizerApplyRule,
       ".......F.......F.FFFFF.FFF...FFF"},
      {0x5eed2026, fault_sites::kExecutorNextBatch,
       "......F...F....FF..F.....FFFFFFF"},
      {0x5eed2026, fault_sites::kPrefetchTask,
       "FFFF.FFFF..F.FFF.FF...F.F.F....."},
  };
  for (const Stream& stream : streams) {
    FaultInjector injector({stream.seed, /*fault_probability=*/0.5});
    std::string outcomes;
    for (uint64_t k = 0; k < 32; ++k) {
      outcomes +=
          injector.Probe(stream.site, k * 0x9e3779b97f4a7c15ULL).ok() ? '.'
                                                                      : 'F';
    }
    EXPECT_EQ(outcomes, stream.outcomes)
        << "seed " << stream.seed << " site " << stream.site;
  }

  FaultInjector seven({7, 0.5});
  FaultInjector other({0x5eed2026, 0.5});
  const uint64_t edge = FaultInjector::EdgeKey(3, 5, 1);
  EXPECT_EQ(seven.JitterFactor(0, 0, 0.5), 0x1.1af42b5423f06p+0);
  EXPECT_EQ(seven.JitterFactor(0, 1, 0.5), 0x1.5d903e94bdc45p+0);
  EXPECT_EQ(seven.JitterFactor(42, 0, 0.5), 0x1.da7aba9fdbcccp-1);
  EXPECT_EQ(seven.JitterFactor(42, 1, 0.5), 0x1.65f7a51de1131p-1);
  EXPECT_EQ(seven.JitterFactor(edge, 0, 0.5), 0x1.faca38d54e3d6p-1);
  EXPECT_EQ(seven.JitterFactor(edge, 1, 0.5), 0x1.6deae851c7e8p+0);
  EXPECT_EQ(other.JitterFactor(0, 0, 0.5), 0x1.57c39332fcbe9p+0);
  EXPECT_EQ(other.JitterFactor(0, 1, 0.5), 0x1.56158dd2da7fcp+0);
  EXPECT_EQ(other.JitterFactor(42, 0, 0.5), 0x1.31bcef3d35ba9p+0);
  EXPECT_EQ(other.JitterFactor(42, 1, 0.5), 0x1.02c94402cc8d3p-1);
  EXPECT_EQ(other.JitterFactor(edge, 0, 0.5), 0x1.36ce309c87cc8p+0);
  EXPECT_EQ(other.JitterFactor(edge, 1, 0.5), 0x1.5f9993408e928p+0);
}

TEST(FaultInjectorTest, EdgeKeyDecorrelatesAttempts) {
  std::set<uint64_t> keys;
  for (int target = -1; target < 3; ++target) {
    for (int q = 0; q < 3; ++q) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        keys.insert(FaultInjector::EdgeKey(target, q, attempt));
      }
    }
  }
  EXPECT_EQ(keys.size(), 4u * 3u * 3u);  // all distinct
}

TEST(RetryPolicyTest, BackoffRespectsTheCap) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 10.0;
  policy.backoff_multiplier = 100.0;
  policy.max_backoff_micros = 50.0;
  // Attempt 3 would be 10 * 100^3 uncapped; the cap keeps the sleep tiny.
  auto start = std::chrono::steady_clock::now();
  SleepForBackoff(policy, /*attempt=*/3, /*jitter_factor=*/1.0);
  std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 50000.0);
  SleepForBackoff(policy, 0, 0.0);  // zero sleep is a no-op
}

}  // namespace
}  // namespace qtf
