// Unit tests for the support layer: statistics, strings, RNG determinism,
// Result arm safety, cooperative deadlines, deterministic fault injection,
// and per-process scratch directories.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/support/deadline.h"
#include "src/support/fault_injection.h"
#include "src/support/result.h"
#include "src/support/rng.h"
#include "src/support/scratch_dir.h"
#include "src/support/stats.h"
#include "src/support/strings.h"

namespace support {
namespace {

TEST(Stats, RunningMatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) {
    rs.Add(x);
  }
  EXPECT_DOUBLE_EQ(rs.mean(), Mean(xs));
  EXPECT_NEAR(rs.variance(), Variance(xs), 1e-12);
  EXPECT_EQ(rs.min(), 1.0);
  EXPECT_EQ(rs.max(), 10.0);
  EXPECT_EQ(rs.count(), 5u);
}

TEST(Stats, PearsonPerfectAndNone) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> anti = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, anti), -1.0, 1e-12);
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_EQ(PearsonCorrelation(xs, flat), 0.0);
}

TEST(Stats, SpearmanHandlesTiesAndMonotonicity) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {1, 4, 9, 16, 25};  // Monotone, nonlinear.
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> tied = {1, 1, 2, 2, 3};
  const auto ranks = AverageRanks(tied);
  EXPECT_DOUBLE_EQ(ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(ranks[2], 3.5);
  EXPECT_DOUBLE_EQ(ranks[4], 5.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(Stats, FitLineRecoversCoefficients) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 0.5 * i);
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, FitLogLogDropsNonPositive) {
  const std::vector<double> xs = {10, 100, 1000, -5, 0};
  const std::vector<double> ys = {1, 10, 100, 7, 7};
  const LinearFit fit = FitLogLog(xs, ys);
  EXPECT_EQ(fit.n, 3u);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(99);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) {
    rs.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(rs.mean(), 5.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(3);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.5)));
    large.Add(static_cast<double>(rng.Poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(large.mean(), 80.0, 1.0);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(5);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.3);
  EXPECT_NEAR(static_cast<double>(counts[3]) / counts[0], 6.0, 0.6);
}

TEST(Rng, ForkIndependence) {
  Rng parent(1);
  Rng child = parent.Fork();
  // The child stream should differ from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child.NextU64() != parent.NextU64()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Strings, SplitAndJoin) {
  const auto parts = Split("a,,b,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(Join({"x", "y", "z"}, "::"), "x::y::z");
  const auto words = SplitWhitespace("  hello\t world \n");
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], "hello");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(Trim("  abc\t"), "abc");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(ToUpper("MiXeD"), "MIXED");
  EXPECT_TRUE(StartsWith("prefix.rest", "prefix"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith("cc", "file.cc"));
}

TEST(Strings, StrictParsing) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -17 ").value(), -17);
  EXPECT_FALSE(ParseInt("12abc").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_NEAR(ParseDouble("3.5e2").value(), 350.0, 1e-12);
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
}

TEST(Strings, FormatMatchesPrintf) {
  EXPECT_EQ(Format("%d-%s-%0.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(Format("%s", std::string(500, 'a').c_str()).size(), 500u);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = Error(Error::Code::kNotFound, "missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), Error::Code::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.error().ToString(), "not_found: missing");
  Status status = Status::Ok();
  EXPECT_TRUE(status.ok());
}

TEST(Result, WrapPrefixesContextAndKeepsCode) {
  const Error base(Error::Code::kParseError, "bad token at line 3");
  const Error wrapped = base.Wrap("loading checkpoint");
  EXPECT_EQ(wrapped.code(), Error::Code::kParseError);
  EXPECT_EQ(wrapped.message(), "loading checkpoint: bad token at line 3");
  const Error twice = wrapped.Wrap("resume");
  EXPECT_EQ(twice.ToString(),
            "parse_error: resume: loading checkpoint: bad token at line 3");
}

// Wrong-arm access must die loudly in every build mode (under NDEBUG an
// assert would vanish and std::get on the wrong variant alternative is UB),
// and the abort message must carry the held error so the crash is debuggable.
TEST(ResultDeathTest, ValueOnErrorAbortsWithHeldError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Result<int> bad = Error(Error::Code::kNotFound, "missing file");
  EXPECT_DEATH({ (void)bad.value(); }, "not_found: missing file");
}

TEST(ResultDeathTest, ErrorOnValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Result<int> ok = 7;
  EXPECT_DEATH({ (void)ok.error(); }, "result holds a value");
  const Status status = Status::Ok();
  EXPECT_DEATH({ (void)status.error(); }, "status is ok");
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline deadline = Deadline::Unlimited();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(deadline.Tick());
  }
  EXPECT_FALSE(deadline.expired());
}

TEST(Deadline, StepBudgetIsExactAndSticky) {
  Deadline deadline = Deadline::Steps(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(deadline.Tick()) << "tick " << i;
  }
  EXPECT_FALSE(deadline.Tick());
  EXPECT_TRUE(deadline.expired());
  // Sticky: once expired, stays expired (and stops counting).
  EXPECT_FALSE(deadline.Tick());
  EXPECT_EQ(deadline.steps_used(), 11u);
  EXPECT_THROW(deadline.ThrowIfExpired("stage"), DeadlineExceeded);
}

TEST(Deadline, TickOrThrowNamesTheStage) {
  Deadline deadline = Deadline::Steps(1);
  deadline.TickOrThrow("dataflow");
  try {
    deadline.TickOrThrow("dataflow");
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("dataflow"), std::string::npos);
  }
}

TEST(Deadline, WeightedTicksCountEachStep) {
  Deadline deadline = Deadline::Steps(100);
  EXPECT_TRUE(deadline.Tick(60));
  EXPECT_TRUE(deadline.Tick(40));
  EXPECT_FALSE(deadline.Tick(1));
}

TEST(FaultInjector, ParseAcceptsSitesRatesAndSeed) {
  auto parsed = FaultInjector::Parse("parse:0.25,solver:1,seed:42");
  ASSERT_TRUE(parsed.ok());
  const FaultInjector& injector = parsed.value();
  EXPECT_TRUE(injector.enabled());
  EXPECT_DOUBLE_EQ(injector.rate(FaultSite::kParse), 0.25);
  EXPECT_DOUBLE_EQ(injector.rate(FaultSite::kSolver), 1.0);
  EXPECT_DOUBLE_EQ(injector.rate(FaultSite::kDynamic), 0.0);
  EXPECT_EQ(injector.ConfigString(), "parse:0.25,solver:1,seed:42");
}

TEST(FaultInjector, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultInjector::Parse("nosuchsite:0.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("parse").ok());
  EXPECT_FALSE(FaultInjector::Parse("parse:abc").ok());
  EXPECT_FALSE(FaultInjector::Parse("seed:notanumber").ok());
  auto empty = FaultInjector::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().enabled());
  EXPECT_EQ(empty.value().Fingerprint(), 0u);
}

TEST(FaultInjector, VerdictIsPureFunctionOfKeyAndAttempt) {
  auto parsed = FaultInjector::Parse("solver:0.5,seed:7");
  ASSERT_TRUE(parsed.ok());
  const FaultInjector& injector = parsed.value();
  // Same key, same attempt -> same verdict, call after call.
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(injector.ShouldFail(FaultSite::kSolver, key, 0),
              injector.ShouldFail(FaultSite::kSolver, key, 0));
  }
  // Attempt salt re-rolls: some keys that fail at attempt 0 pass at 1.
  int recovered = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    if (injector.ShouldFail(FaultSite::kSolver, key, 0) &&
        !injector.ShouldFail(FaultSite::kSolver, key, 1)) {
      ++recovered;
    }
  }
  EXPECT_GT(recovered, 0);
  // Rate 0.5 over 200 keys: the hit count should be in a generous band.
  int hits = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    hits += injector.ShouldFail(FaultSite::kSolver, key, 0) ? 1 : 0;
  }
  EXPECT_GT(hits, 60);
  EXPECT_LT(hits, 140);
}

TEST(FaultInjector, VerdictsAgreeAcrossThreads) {
  auto parsed = FaultInjector::Parse("dataflow:0.3,seed:11");
  ASSERT_TRUE(parsed.ok());
  const FaultInjector& injector = parsed.value();
  std::vector<uint8_t> serial(512);
  for (uint64_t key = 0; key < serial.size(); ++key) {
    serial[key] = injector.ShouldFail(FaultSite::kDataflow, key, 0) ? 1 : 0;
  }
  std::vector<uint8_t> threaded(serial.size(), 0xff);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (uint64_t key = static_cast<uint64_t>(w); key < threaded.size(); key += 4) {
        threaded[key] = injector.ShouldFail(FaultSite::kDataflow, key, 0) ? 1 : 0;
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(serial, threaded);
}

TEST(FaultInjector, RateOneAlwaysFiresAndCounts) {
  auto parsed = FaultInjector::Parse("cache:1");
  ASSERT_TRUE(parsed.ok());
  const FaultInjector& injector = parsed.value();
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kCache, key, 0));
  }
  EXPECT_EQ(injector.injected(FaultSite::kCache), 32u);
  EXPECT_THROW(injector.MaybeFail(FaultSite::kCache, 1), InjectedFault);
}

TEST(FaultInjector, ScopedAttemptSaltsTheDefaultVerdict) {
  auto parsed = FaultInjector::Parse("parse:0.5,seed:3");
  ASSERT_TRUE(parsed.ok());
  const FaultInjector& injector = parsed.value();
  EXPECT_EQ(FaultInjector::CurrentAttempt(), 0u);
  uint64_t differing = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    const bool at0 = injector.ShouldFail(FaultSite::kParse, key);
    FaultInjector::ScopedAttempt salt(1);
    EXPECT_EQ(FaultInjector::CurrentAttempt(), 1u);
    if (injector.ShouldFail(FaultSite::kParse, key) != at0) {
      ++differing;
    }
  }
  EXPECT_EQ(FaultInjector::CurrentAttempt(), 0u);
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, ScopedConfigSwapsAndRestoresGlobal) {
  const std::string before = FaultInjector::Global().ConfigString();
  {
    FaultInjector::ScopedConfig scoped("lower:1");
    EXPECT_TRUE(FaultInjector::Global().enabled());
    EXPECT_DOUBLE_EQ(FaultInjector::Global().rate(FaultSite::kLower), 1.0);
    EXPECT_NE(FaultInjector::Global().Fingerprint(), 0u);
  }
  EXPECT_EQ(FaultInjector::Global().ConfigString(), before);
}

TEST(FaultInjector, FaultKeyMatchesFnvAndMixes) {
  // Same input -> same key; different inputs -> (overwhelmingly) different.
  EXPECT_EQ(FaultKey("abc"), FaultKey("abc"));
  EXPECT_NE(FaultKey("abc"), FaultKey("abd"));
  EXPECT_NE(FaultKeyMix(1, 2), FaultKeyMix(2, 1));
}

TEST(ScratchDir, DistinctPerInstanceAndRemovedRecursively) {
  std::string kept;
  {
    const ScratchDir a("support_test");
    const ScratchDir b("support_test");
    EXPECT_NE(a.path(), b.path());
    ASSERT_TRUE(std::filesystem::is_directory(a.path()));
    EXPECT_EQ(a.File("x.bin"), a.path() + "/x.bin");
    std::filesystem::create_directory(a.File("nested"));
    std::ofstream(a.File("nested/file.txt")) << "bytes";
    kept = a.path();
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

}  // namespace
}  // namespace support
