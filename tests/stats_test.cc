// Tests for the resampling-statistics module (bootstrap CIs, paired
// permutation tests).

#include <gtest/gtest.h>

#include <cmath>

#include "classify/stats.h"
#include "common/rng.h"

namespace rll::classify {
namespace {

TEST(BootstrapTest, CiBracketsTheMean) {
  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(rng.Normal(0.8, 0.05));
  auto ci = BootstrapMeanCi(values, &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lower, ci->mean);
  EXPECT_GE(ci->upper, ci->mean);
  EXPECT_NEAR(ci->mean, 0.8, 0.03);
  // 95% CI of 50 samples with sd 0.05: roughly ±0.014.
  EXPECT_NEAR(ci->upper - ci->lower, 4.0 * 0.05 / std::sqrt(50.0), 0.02);
}

TEST(BootstrapTest, DegenerateConstantValues) {
  Rng rng(2);
  auto ci = BootstrapMeanCi({0.5, 0.5, 0.5, 0.5}, &rng);
  ASSERT_TRUE(ci.ok());
  EXPECT_DOUBLE_EQ(ci->mean, 0.5);
  EXPECT_DOUBLE_EQ(ci->lower, 0.5);
  EXPECT_DOUBLE_EQ(ci->upper, 0.5);
}

TEST(BootstrapTest, WiderConfidenceWidensInterval) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) values.push_back(rng.Normal(0.0, 1.0));
  Rng rng_a(7), rng_b(7);
  auto narrow = BootstrapMeanCi(values, &rng_a, 0.8);
  auto wide = BootstrapMeanCi(values, &rng_b, 0.99);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_LT(narrow->upper - narrow->lower, wide->upper - wide->lower);
}

TEST(BootstrapTest, RejectsBadInputs) {
  Rng rng(4);
  EXPECT_FALSE(BootstrapMeanCi({}, &rng).ok());
  EXPECT_FALSE(BootstrapMeanCi({1.0}, &rng, 1.5).ok());
  EXPECT_FALSE(BootstrapMeanCi({1.0}, &rng, 0.95, 10).ok());
}

TEST(PermutationTest, ClearDifferenceIsSignificant) {
  Rng rng(5);
  // A beats B by 0.1 on every one of 15 folds: essentially certain.
  std::vector<double> a(15), b(15);
  for (size_t i = 0; i < a.size(); ++i) {
    b[i] = 0.7 + 0.01 * static_cast<double>(i % 3);
    a[i] = b[i] + 0.1;
  }
  auto result = PairedPermutationTest(a, b, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->mean_difference, 0.1, 1e-12);
  EXPECT_LT(result->p_value, 0.001);
}

TEST(PermutationTest, NoDifferenceIsInsignificant) {
  Rng rng(6);
  std::vector<double> a(30), b(30);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal(0.8, 0.05);
    b[i] = a[i] + rng.Normal(0.0, 0.05);  // Zero-mean paired noise.
  }
  auto result = PairedPermutationTest(a, b, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.05);
}

TEST(PermutationTest, ExactEnumerationForSmallN) {
  Rng rng(7);
  // n = 3, all diffs +1: only the all-positive and all-negative sign
  // patterns reach |mean diff| = 1 → p = 2/8.
  auto result = PairedPermutationTest({1, 1, 1}, {0, 0, 0}, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->p_value, 2.0 / 8.0, 1e-12);
}

TEST(PermutationTest, SymmetricInSign) {
  Rng rng(8);
  std::vector<double> a = {1, 1, 1, 1, 1, 1};
  std::vector<double> b = {0, 0, 0, 0, 0, 0};
  auto ab = PairedPermutationTest(a, b, &rng);
  auto ba = PairedPermutationTest(b, a, &rng);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_DOUBLE_EQ(ab->p_value, ba->p_value);
  EXPECT_DOUBLE_EQ(ab->mean_difference, -ba->mean_difference);
}

TEST(PermutationTest, RejectsMismatchedSizes) {
  Rng rng(9);
  EXPECT_FALSE(PairedPermutationTest({1.0}, {1.0, 2.0}, &rng).ok());
  EXPECT_FALSE(PairedPermutationTest({}, {}, &rng).ok());
}

}  // namespace
}  // namespace rll::classify
