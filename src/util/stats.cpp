#include "util/stats.hpp"

#include <algorithm>
#include <cassert>

namespace eslurm {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<double> empirical_cdf(const std::vector<double>& samples,
                                  const std::vector<double>& thresholds) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(thresholds.size());
  for (double t : thresholds) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
    out.push_back(sorted.empty()
                      ? 0.0
                      : static_cast<double>(it - sorted.begin()) /
                            static_cast<double>(sorted.size()));
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {}

void Histogram::add(double x) {
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++total_;
  sum_ += x;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
    ++counts_[idx];
  }
}

double Histogram::bucket_low(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  const auto clamp_observed = [this](double v) {
    return std::clamp(v, min_, max_);
  };
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) {
    // Interpolate across the underflow mass [min, lo).
    const double frac = underflow_ ? target / static_cast<double>(underflow_) : 0.0;
    return clamp_observed(min_ + (lo_ - min_) * frac);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cumulative) / static_cast<double>(counts_[i]);
      return clamp_observed(bucket_low(i) + width_ * frac);
    }
    cumulative = next;
  }
  // Overflow mass [hi, max]: interpolation keeps a p99 below an extreme
  // max honest.
  const double frac =
      overflow_ ? (target - cumulative) / static_cast<double>(overflow_) : 1.0;
  return clamp_observed(hi_ + (max_ - hi_) * std::clamp(frac, 0.0, 1.0));
}

void TimeSeries::record(SimTime t, double value) {
  assert(peaks_.empty() || t >= peaks_.back().first);
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
  while (!peaks_.empty() && peaks_.back().second <= value) peaks_.pop_back();
  peaks_.emplace_back(t, value);
}

double TimeSeries::max_since(SimTime t0) const {
  const auto it = std::lower_bound(peaks_.begin(), peaks_.end(), t0,
                                   [](const auto& p, SimTime t) { return p.first < t; });
  return it == peaks_.end() ? 0.0 : std::max(0.0, it->second);
}

}  // namespace eslurm
