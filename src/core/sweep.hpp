// Parallel multi-seed sweep runner.
//
// Every paper figure is a sweep -- over satellite counts, client
// populations, estimators, seeds.  A sweep is a grid of *points* (one
// ExperimentConfig each) x *replicas* (seed variations of that point).
// Replica k of a point runs with seed derive_seed(base_seed, k), so any
// replica is reproducible in isolation; per-replica metrics are
// aggregated into mean +/- stddev per point.
//
// The runner executes the (point, replica) grid on a pool of worker
// threads.  This is safe because a world is built strictly from its
// ExperimentConfig: de-globalized telemetry and the per-network
// message-type allocator leave no mutable state shared between worlds,
// so results are bit-identical whatever the thread count or completion
// order (results land in slots indexed by (point, replica), never in
// arrival order).
//
//   core::SweepSpec spec;
//   for (int s : {10, 20}) spec.points.push_back({...});
//   spec.replicas = 3;
//   spec.jobs = 6;
//   auto outcomes = core::run_sweep(spec, [](const core::SweepTask& task) {
//     core::Experiment experiment(task.config);
//     experiment.submit_trace(...);
//     experiment.run();
//     return core::metrics_from_report(experiment.report());
//   });
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "sched/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::core {

/// One sweep point: a labeled configuration plus the parameter values
/// that distinguish it (echoed into bench JSON artifacts).
struct SweepPoint {
  std::string label;
  ExperimentConfig config;  ///< config.seed is the replica-stream base
  /// Parameter values of this point (e.g. {"satellites", "20"}), kept as
  /// strings so both numeric and categorical axes fit.
  std::vector<std::pair<std::string, std::string>> params;
};

struct SweepSpec {
  std::vector<SweepPoint> points;
  int replicas = 1;  ///< seed replicas per point (>= 1)
  int jobs = 1;      ///< worker threads (>= 1)
  /// When non-empty, the runner writes one telemetry artifact per point
  /// (replica 0) to `<telemetry_dir>/<label>.trace.json`, unless that
  /// point's world recorded nothing.
  std::string telemetry_dir;
};

/// What one replica run hands back: named metric values, in a stable
/// order (the same for every replica of a point).
using MetricRow = std::vector<std::pair<std::string, double>>;

/// One (point, replica) cell of the grid, as seen by the run function.
struct SweepTask {
  std::size_t point_index = 0;
  std::size_t replica = 0;
  /// The point's config with the replica seed already derived and, for
  /// replica 0 of a telemetry-collecting sweep, the telemetry context
  /// attached.
  ExperimentConfig config;
  const SweepPoint* point = nullptr;
};

/// Runs the world for one task and returns its metrics.  Called from
/// worker threads: it must build everything it touches from `task` alone.
using SweepFn = std::function<MetricRow(const SweepTask& task)>;

struct MetricStats {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (0 when n < 2)
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

struct PointOutcome {
  SweepPoint point;
  std::vector<MetricRow> replicas;  ///< indexed by replica id
  /// Per-metric aggregates across replicas, in the metric order of the
  /// first replica.
  std::vector<std::pair<std::string, MetricStats>> aggregates;
  /// Path of the telemetry artifact written for this point ("" if none:
  /// no telemetry asked for, nothing recorded, or the write failed).
  std::string telemetry_path;
};

/// Executes the grid and aggregates.  Throws std::runtime_error if any
/// replica's run function threw (after all workers drained).
std::vector<PointOutcome> run_sweep(const SweepSpec& spec, const SweepFn& fn);

/// Aggregates a set of samples (helper, exposed for tests and benches
/// that aggregate outside run_sweep).
MetricStats aggregate(const std::vector<double>& samples);

/// Standard metric row for a SchedulingReport -- the common case when a
/// sweep point is "run this workload and report Fig. 10 metrics".
MetricRow metrics_from_report(const sched::SchedulingReport& report);

/// Generic parallel task map over [0, count) with `jobs` workers, used by
/// benches whose points are not Experiment runs.  `fn(i)` must only touch
/// state owned by task i; exceptions are collected and rethrown (first
/// one) after all workers drain.
void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace eslurm::core
