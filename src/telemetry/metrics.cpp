#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace eslurm::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no bucket bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside bucket i between its lower and upper edge.
    const double lo = i == 0 ? min_ : bounds_[i - 1];
    const double hi = i < bounds_.size() ? bounds_[i] : max_;
    const double frac = counts_[i] ? (rank - before) / static_cast<double>(counts_[i])
                                   : 0.0;
    const double value = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    return std::clamp(value, min_, max_);
  }
  return max_;
}

std::vector<double> default_time_buckets() {
  std::vector<double> bounds;
  for (double decade = 1e-3; decade <= 1e3; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  return bounds;  // 0.001, 0.002, 0.005, ..., 1000, 2000, 5000
}

std::string labeled_name(const std::string& name, Labels labels) {
  if (labels.size() == 0) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

Counter& Registry::counter(const std::string& name, Labels labels) {
  return counters_[labeled_name(name, labels)];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  return gauges_[labeled_name(name, labels)];
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = default_time_buckets();
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

Histogram& Registry::histogram(const std::string& name, Labels labels,
                               std::vector<double> bounds) {
  return histogram(labeled_name(name, labels), std::move(bounds));
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

void write_number(std::ostream& os, double v) {
  // JSON has no inf/nan; clamp to null which every reader tolerates.
  if (v != v || v > 1e308 || v < -1e308) {
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << v;
  os << tmp.str();
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":";
    write_number(os, c.value());
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":";
    write_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h.count() << ",\"sum\":";
    write_number(os, h.sum());
    os << ",\"min\":";
    write_number(os, h.min());
    os << ",\"max\":";
    write_number(os, h.max());
    os << ",\"p50\":";
    write_number(os, h.p50());
    os << ",\"p95\":";
    write_number(os, h.p95());
    os << ",\"p99\":";
    write_number(os, h.p99());
    os << ",\"buckets\":[";
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ',';
      os << "{\"le\":";
      if (i < h.bounds().size())
        write_number(os, h.bounds()[i]);
      else
        os << "\"inf\"";
      os << ",\"count\":" << counts[i] << '}';
    }
    os << "]}";
  }
  os << "}}";
}

}  // namespace eslurm::telemetry
