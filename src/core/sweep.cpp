#include "core/sweep.hpp"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace eslurm::core {

MetricStats aggregate(const std::vector<double>& samples) {
  MetricStats stats;
  stats.n = samples.size();
  if (samples.empty()) return stats;
  double sum = 0.0;
  stats.min = samples[0];
  stats.max = samples[0];
  for (const double v : samples) {
    sum += v;
    if (v < stats.min) stats.min = v;
    if (v > stats.max) stats.max = v;
  }
  stats.mean = sum / static_cast<double>(stats.n);
  if (stats.n >= 2) {
    double ss = 0.0;
    for (const double v : samples) ss += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(ss / static_cast<double>(stats.n - 1));
  }
  return stats;
}

MetricRow metrics_from_report(const sched::SchedulingReport& report) {
  return {
      {"jobs_finished", static_cast<double>(report.jobs_finished)},
      {"system_utilization", report.system_utilization},
      {"avg_wait_seconds", report.avg_wait_seconds},
      {"avg_bounded_slowdown", report.avg_bounded_slowdown},
      {"p95_wait_seconds", report.p95_wait_seconds},
      {"makespan_hours", report.makespan_hours},
      {"jobs_timed_out", static_cast<double>(report.jobs_timed_out)},
  };
}

void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = static_cast<std::size_t>(
      std::max(1, std::min<int>(jobs, static_cast<int>(count ? count : 1))));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        fn(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = e.what();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = "unknown exception";
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (!first_error.empty())
    throw std::runtime_error("parallel_for task failed: " + first_error);
}

namespace {

/// File-system-safe artifact stem from a point label.
std::string sanitize(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "point" : out;
}

}  // namespace

std::vector<PointOutcome> run_sweep(const SweepSpec& spec, const SweepFn& fn) {
  const std::size_t n_points = spec.points.size();
  const std::size_t replicas = static_cast<std::size_t>(std::max(1, spec.replicas));

  std::vector<PointOutcome> outcomes(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    outcomes[p].point = spec.points[p];
    outcomes[p].replicas.resize(replicas);
  }

  const bool collect_telemetry = !spec.telemetry_dir.empty();
  // One context per point, owned here and attached to replica 0 only:
  // a context serves one world at a time, and replica 0 is the
  // representative run the artifact documents.
  std::vector<telemetry::Telemetry> contexts(collect_telemetry ? n_points : 0);
  if (collect_telemetry) {
    std::filesystem::create_directories(spec.telemetry_dir);
    for (auto& context : contexts) context.enable();
  }

  parallel_for(n_points * replicas, spec.jobs, [&](std::size_t i) {
    const std::size_t p = i / replicas;
    const std::size_t r = i % replicas;
    SweepTask task;
    task.point_index = p;
    task.replica = r;
    task.point = &spec.points[p];
    task.config = spec.points[p].config;
    task.config.seed = derive_seed(task.config.seed, r);
    task.config.telemetry =
        (collect_telemetry && r == 0) ? &contexts[p] : nullptr;
    outcomes[p].replicas[r] = fn(task);
  });

  for (std::size_t p = 0; p < n_points; ++p) {
    PointOutcome& outcome = outcomes[p];
    if (collect_telemetry) {
      const std::string path = spec.telemetry_dir + "/" +
                               sanitize(outcome.point.label) + ".trace.json";
      if (!contexts[p].empty() && contexts[p].save(path))
        outcome.telemetry_path = path;
    }
    if (outcome.replicas.empty() || outcome.replicas[0].empty()) continue;
    const MetricRow& first = outcome.replicas[0];
    outcome.aggregates.reserve(first.size());
    for (std::size_t m = 0; m < first.size(); ++m) {
      std::vector<double> samples;
      samples.reserve(replicas);
      for (const MetricRow& row : outcome.replicas)
        if (m < row.size()) samples.push_back(row[m].second);
      outcome.aggregates.emplace_back(first[m].first, aggregate(samples));
    }
  }
  return outcomes;
}

}  // namespace eslurm::core
