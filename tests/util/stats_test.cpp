#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <random>

#include "time_series_oracle.hpp"

namespace eslurm {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double x : {4.0, 1.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(EmpiricalCdf, FractionAtThresholds) {
  const std::vector<double> samples{1, 2, 3, 4};
  const auto cdf = empirical_cdf(samples, {0.5, 2.0, 10.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(3.9);
  h.add(9.99);
  h.add(10.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.p95(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, QuantileOfUniformStreamIsAccurate) {
  // 10,000 evenly spaced samples in [0, 100) against 1,000 buckets: the
  // streaming quantile must land within one bucket width (0.1) of the
  // exact order statistic.
  Histogram h(0.0, 100.0, 1000);
  for (int i = 0; i < 10000; ++i) h.add(i * 0.01);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 0.1);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 0.1);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 0.1);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_NEAR(h.mean(), 49.995, 1e-9);
}

TEST(HistogramTest, QuantileClampsToObservedRange) {
  // All mass in one bucket: any quantile must stay inside [min, max],
  // not report the bucket edges.
  Histogram h(0.0, 60.0, 12);  // 5-wide buckets
  h.add(2.2);
  h.add(2.4);
  h.add(2.6);
  EXPECT_GE(h.quantile(0.01), 2.2);
  EXPECT_LE(h.quantile(0.99), 2.6);
  EXPECT_DOUBLE_EQ(h.min(), 2.2);
  EXPECT_DOUBLE_EQ(h.max(), 2.6);
}

TEST(HistogramTest, QuantileCoversUnderAndOverflowMass) {
  Histogram h(10.0, 20.0, 10);
  for (int i = 0; i < 50; ++i) h.add(5.0);   // underflow mass
  for (int i = 0; i < 50; ++i) h.add(25.0);  // overflow mass
  // Low quantiles interpolate inside [min, lo); high ones inside
  // (hi, max]; both stay within the observed range.
  EXPECT_GE(h.quantile(0.1), 5.0);
  EXPECT_LT(h.quantile(0.1), 10.0);
  EXPECT_GT(h.quantile(0.9), 20.0);
  EXPECT_LE(h.quantile(0.9), 25.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 25.0);
}

TEST(TimeSeriesTest, LastMaxMean) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.record(seconds(1), 2.0);
  ts.record(seconds(2), 6.0);
  ts.record(seconds(3), 4.0);
  EXPECT_DOUBLE_EQ(ts.last(), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 6.0);
  EXPECT_DOUBLE_EQ(ts.mean_value(), 4.0);
}

TEST(TimeSeriesTest, MatchesBruteForce) {
  // Randomized sequences mixing equal timestamps, negative values,
  // repeated levels and long monotone runs; after every record the
  // running summary must equal a full scan of the points, exactly.
  std::mt19937_64 gen(2024);
  for (int sequence = 0; sequence < 24; ++sequence) {
    TimeSeries live;
    PointListSeries oracle;
    expect_same_summary(live, oracle);
    SimTime t = static_cast<SimTime>(gen() % 1000);
    double level = 0.0;
    for (int i = 0; i < 160; ++i) {
      switch (gen() % 4) {  // time step: repeats are common
        case 0: break;
        case 1: t += 1; break;
        case 2: t += static_cast<SimTime>(gen() % 50); break;
        default: t += static_cast<SimTime>(gen() % 100000); break;
      }
      double value = 0.0;
      switch ((i / 40 + sequence) % 4) {  // 40-record runs of one kind
        case 0:  // small integer levels, negatives included
          value = static_cast<double>(static_cast<int>(gen() % 13) - 4);
          break;
        case 1:  // long rising run
          level += static_cast<double>(gen() % 3);
          value = level;
          break;
        case 2:  // long falling run into negatives
          level -= static_cast<double>(gen() % 3);
          value = level;
          break;
        default:  // arbitrary reals
          value = std::uniform_real_distribution<double>(-50.0, 50.0)(gen);
          break;
      }
      live.record(t, value);
      oracle.record(t, value);
      expect_same_summary(live, oracle);
      if (::testing::Test::HasFailure()) return;  // one report, not thousands
    }
  }
}

}  // namespace
}  // namespace eslurm
