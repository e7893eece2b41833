// Unit tests for the common substrate: Status/Result, string helpers, and
// the deterministic RNG (distribution sanity + reproducibility).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace rll {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> DoubleIfValid(int x) {
  RLL_RETURN_IF_ERROR(FailsWhenNegative(x));
  return 2 * x;
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(DoubleIfValid(3).ok());
  EXPECT_EQ(*DoubleIfValid(3), 6);
  EXPECT_FALSE(DoubleIfValid(-1).ok());
}

// --------------------------------------------------------------- Strings

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split("a,b,c", ','), parts);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split(",x,", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("z"), "z");
}

TEST(StringsTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("3.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, ParseInt) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_FALSE(ParseInt("17.5", &v));
  EXPECT_FALSE(ParseInt("abc", &v));
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) counts[rng.UniformInt(5u)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.02);
  }
}

TEST(RngTest, UniformIntSignedBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, BetaMeanMatchesTheory) {
  Rng rng(23);
  const double alpha = 6.0, beta = 2.0;
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Beta(alpha, beta);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, alpha / (alpha + beta), 0.01);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(29);
  for (double shape : {0.5, 1.0, 3.0, 9.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (size_t s : sample) EXPECT_LT(s, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(41);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(47);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.Categorical(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, SplitYieldsIndependentStream) {
  Rng a(53);
  Rng child = a.Split();
  // The child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == child.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitSeedIsDeterministic) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  EXPECT_EQ(SplitSeed(42, 17), SplitSeed(42, 17));
}

TEST(RngTest, SplitSeedStreamsAreDistinct) {
  // Seeds derived from one parent must differ from each other, from the
  // same index under another parent, and from the raw parent — otherwise
  // per-task streams would collide or replay the parent stream.
  std::set<uint64_t> seen;
  for (uint64_t parent : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    seen.insert(parent);
    for (uint64_t index = 0; index < 64; ++index) {
      seen.insert(SplitSeed(parent, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u + 4u * 64u);
}

TEST(RngTest, SplitSeedChildStreamsLookIndependent) {
  Rng a(SplitSeed(99, 0));
  Rng b(SplitSeed(99, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, ElapsedUnitsAgree) {
  Stopwatch watch;
  const double seconds = watch.ElapsedSeconds();
  const double millis = watch.ElapsedMillis();
  EXPECT_GE(seconds, 0.0);
  // Millis read after seconds, so the scaled value can only be larger.
  EXPECT_GE(millis, seconds * 1e3);
}

TEST(ScopedTimerTest, FiresCallbackOnDestruction) {
  std::vector<double> reported;
  {
    ScopedTimer timer([&reported](double ms) { reported.push_back(ms); });
    EXPECT_GE(timer.ElapsedMillis(), 0.0);
    EXPECT_TRUE(reported.empty());
  }
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_GE(reported[0], 0.0);
}

TEST(ScopedTimerTest, CancelSuppressesCallback) {
  int calls = 0;
  {
    ScopedTimer timer([&calls](double /*ms*/) { ++calls; });
    timer.Cancel();
  }
  EXPECT_EQ(calls, 0);
}

// --------------------------------------------------------------- logging

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace rll
