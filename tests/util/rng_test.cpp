#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace eslurm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-2, 5);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 5);
    saw_lo |= v == -2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ZipfRankZeroMostPopular) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, ZipfWithinBounds) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.zipf(7, 0.8), 7u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(DeriveSeed, ReproducibleForSameInputs) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(0, 7), derive_seed(0, 7));
}

TEST(DeriveSeed, DistinctStreamsFromOneBase) {
  // Replica streams of one base must all differ (this is what makes
  // sweep replicas independent) and none may collapse back to the base.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 64; ++stream)
    seeds.push_back(derive_seed(42, stream));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_EQ(std::count(seeds.begin(), seeds.end(), 42u), 0);
}

TEST(DeriveSeed, NearbyBasesDoNotCollide) {
  // The ad-hoc `seed + i` scheme this replaces made base 42 stream 1
  // collide with base 43 stream 0; the mixer must not.
  EXPECT_NE(derive_seed(42, 1), derive_seed(43, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(DeriveSeed, DerivedStreamsAreIndependent) {
  // Generators seeded from adjacent streams should decorrelate at the
  // first draw, unlike adjacent raw seeds fed into a weak mixer.
  Rng a(derive_seed(7, 0));
  Rng b(derive_seed(7, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.fork();
  // The child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace eslurm
