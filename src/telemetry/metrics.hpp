// Metrics registry: named, optionally labeled counters, gauges and
// fixed-bucket histograms with a JSON sink.
//
// The registry is the "what happened over the whole run" half of the
// telemetry subsystem (the Tracer is the "when did it happen" half).
// Metric objects are created on first use and live for the registry's
// lifetime, so hot paths can cache the returned reference and update it
// with a single add -- no lookup, no allocation, no branching beyond the
// caller's own enabled-check.
//
// Labels follow the Prometheus convention: a metric family plus a
// `{key=value,...}` suffix identifies one instrument, e.g.
//   comm.broadcast_seconds{structure=fp-tree}
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace eslurm::telemetry {

/// Monotonically increasing value (events, retries, bytes...).
class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins sample (queue depth, stale ratio, AEA...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram.  `bounds` are inclusive upper bucket edges in
/// ascending order; values above the last bound land in an overflow
/// bucket.  Percentiles interpolate linearly inside the matched bucket,
/// clamped to the observed min/max so tails stay honest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// q in [0, 1]; returns 0 for an empty histogram.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size is bounds().size() + 1 (last is overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// 1-2-5 series covering 1 ms .. 2000 s: a good default for latencies
/// measured in seconds (broadcast times, waits, retrain durations).
std::vector<double> default_time_buckets();

using Labels = std::initializer_list<std::pair<const char*, std::string>>;

/// Canonical instrument key: `name` or `name{k1=v1,k2=v2}`.
std::string labeled_name(const std::string& name, Labels labels);

class Registry {
 public:
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, Labels labels);
  Gauge& gauge(const std::string& name);
  Gauge& gauge(const std::string& name, Labels labels);
  /// `bounds` are used only when the instrument is created; empty means
  /// default_time_buckets().
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});
  Histogram& histogram(const std::string& name, Labels labels,
                       std::vector<double> bounds = {});

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void clear();

  /// Deterministic (name-sorted) views for the sink and tests.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// Snapshot as a JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"count":..,"sum":..,"p50":..,...}, ...}}
  void write_json(std::ostream& os) const;

 private:
  // std::map gives both stable references (node-based) and the sorted
  // iteration the sink relies on for reproducible artifacts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace eslurm::telemetry
