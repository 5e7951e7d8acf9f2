// Brute-force reference for util::TimeSeries: a series that keeps every
// (time, value) point and answers each query by scanning them, as the
// point-list TimeSeries did before it became a running summary.
// `expect_same_summary` checks a live series against it, accessor by
// accessor, with exact equality.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace eslurm {

class PointListSeries {
 public:
  using Points = std::vector<std::pair<SimTime, double>>;

  PointListSeries() = default;
  explicit PointListSeries(Points points) : points_(std::move(points)) {}

  void record(SimTime t, double value) { points_.emplace_back(t, value); }

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Points& points() const { return points_; }

  double last() const { return points_.empty() ? 0.0 : points_.back().second; }

  double max_value() const {
    double m = 0.0;
    bool first = true;
    for (const auto& [t, v] : points_) {
      (void)t;
      if (first || v > m) m = v;
      first = false;
    }
    return m;
  }

  double mean_value() const {
    if (points_.empty()) return 0.0;
    double s = 0.0;
    for (const auto& [t, v] : points_) {
      (void)t;
      s += v;
    }
    return s / static_cast<double>(points_.size());
  }

  double max_since(SimTime t0) const {
    double best = 0.0;
    for (auto it = points_.rbegin(); it != points_.rend() && it->first >= t0; ++it)
      best = std::max(best, it->second);
    return best;
  }

 private:
  Points points_;
};

/// Every accessor of `live` equals the oracle's; max_since is probed
/// before the first point, at, just before and just after every recorded
/// time (so between points too), and after the last point.
inline void expect_same_summary(const TimeSeries& live, const PointListSeries& oracle) {
  EXPECT_EQ(live.size(), oracle.size());
  EXPECT_EQ(live.empty(), oracle.empty());
  EXPECT_EQ(live.last(), oracle.last());
  EXPECT_EQ(live.max_value(), oracle.max_value());
  EXPECT_EQ(live.mean_value(), oracle.mean_value());
  EXPECT_EQ(live.max_since(0), oracle.max_since(0));
  for (const auto& [t, v] : oracle.points()) {
    (void)v;
    for (const SimTime t0 : {t - 1, t, t + 1})
      EXPECT_EQ(live.max_since(t0), oracle.max_since(t0)) << "max_since(" << t0 << ")";
  }
}

}  // namespace eslurm
