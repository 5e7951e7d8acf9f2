// Streaming and batch statistics used throughout the benches and the
// resource-accounting layer (CDFs like Fig. 5a, time series like Fig. 7/9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace eslurm {

/// Streaming mean plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample set (linear interpolation between order stats).
/// q in [0, 1].  Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Empirical CDF evaluated at the given thresholds: fraction of samples
/// <= threshold.  Used to reproduce the Fig. 5a accuracy CDF.
std::vector<double> empirical_cdf(const std::vector<double>& samples,
                                  const std::vector<double>& thresholds);

/// Fixed-width histogram with overflow/underflow buckets.
///
/// Doubles as a streaming quantile estimator: `quantile(q)` walks the
/// cumulative counts and interpolates linearly inside the matched
/// bucket, clamped to the observed min/max so the tails stay honest even
/// when the samples land in the under/overflow buckets.  O(1) memory per
/// sample stream, O(buckets) per query -- the cheap replacement for
/// sorting every sample just to report a p95.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& buckets() const { return counts_; }
  double bucket_low(std::size_t i) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  double min() const { return total_ ? min_ : 0.0; }
  double max() const { return total_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }

  /// Streaming percentile, q in [0, 1].  Returns 0 for an empty
  /// histogram.  Resolution is one bucket width; values are clamped to
  /// the observed [min, max].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
  double min_ = 0.0, max_ = 0.0, sum_ = 0.0;
};

/// Running summary of a (sim time, value) series: the count, the sum in
/// record order, the first-then-greater maximum, and a suffix-maximum
/// stack that answers last() and max_since().  No point list is kept.
/// The stack holds only points greater than every later one, so its
/// values strictly decrease front to back, and its size is bounded by
/// the number of distinct values recorded (for a socket count, the peak
/// count plus one), not by the number of records.  The resource
/// accountant keeps one per metric per daemon (CPU, memory, concurrent
/// sockets ...), and the network one per watched node.
///
/// `record` requires non-decreasing `t` (every caller passes the
/// engine's current time); this is asserted in debug builds.
class TimeSeries {
 public:
  void record(SimTime t, double value);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  double last() const { return peaks_.empty() ? 0.0 : peaks_.back().second; }
  double max_value() const { return max_; }
  double mean_value() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Max of the values recorded at t >= t0, floored at 0.  Returns 0 for
  /// an empty window.  O(log stack size).
  double max_since(SimTime t0) const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  /// Suffix maxima, values strictly decreasing, times non-decreasing;
  /// the back is the last point recorded.
  std::vector<std::pair<SimTime, double>> peaks_;
};

}  // namespace eslurm
