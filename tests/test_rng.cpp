#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <array>
#include <set>
#include <vector>

namespace nfvm::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(99);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(123);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformRealRange) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real(50.0, 200.0);
    EXPECT_GE(v, 50.0);
    EXPECT_LT(v, 200.0);
  }
}

TEST(Rng, UniformRealRejectsInvertedBounds) {
  Rng rng(13);
  EXPECT_THROW(rng.uniform_real(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialPositiveWithCorrectMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(2.0);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(23);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleChangesOrderEventually) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> orig = v;
  bool changed = false;
  for (int i = 0; i < 10 && !changed; ++i) {
    rng.shuffle(std::span<int>(v));
    changed = (v != orig);
  }
  EXPECT_TRUE(changed);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(37);
  const auto picks = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<std::size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (std::size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(41);
  const auto picks = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedCount) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleZeroCountEmpty) {
  Rng rng(43);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, ChiSquareUniformityOfNextBelow) {
  // 16 buckets, 16000 draws: expected 1000 per bucket. Chi-square with 15
  // degrees of freedom; 99.9th percentile ~ 37.7. A deterministic seed makes
  // this a regression test, not a flaky statistical one.
  Rng rng(20260706);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 16000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 37.7);
}

TEST(Rng, ChiSquareUniformityOfUniform01) {
  Rng rng(777);
  constexpr int kBuckets = 20;
  constexpr int kDraws = 20000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    const int b = static_cast<int>(rng.uniform01() * kBuckets);
    ++counts[b < kBuckets ? b : kBuckets - 1];
  }
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 99.9th percentile of chi-square with 19 dof ~ 43.8.
  EXPECT_LT(chi2, 43.8);
}

TEST(Rng, LaggedAutocorrelationLow) {
  // Pearson correlation between consecutive uniform01 draws stays near 0.
  Rng rng(31337);
  const int n = 20000;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  double prev = rng.uniform01();
  for (int i = 0; i < n; ++i) {
    const double cur = rng.uniform01();
    sx += prev; sy += cur;
    sxx += prev * prev; syy += cur * cur; sxy += prev * cur;
    prev = cur;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  const double corr = cov / std::sqrt(vx * vy);
  EXPECT_LT(std::abs(corr), 0.03);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace nfvm::util
