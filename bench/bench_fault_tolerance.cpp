// Fault-tolerance sweep: node MTBF x network chaos vs job survival.
//
// Each sweep cell runs the same workload and the same failure trace
// through four recovery arms:
//   baseline     recovery machinery on, zero retry budget -- the first
//                node death a job suffers is terminal (slurm with
//                JobRequeue=0);
//   retry        node-death kills requeue with exponential backoff under
//                a retry budget; every rerun starts from scratch;
//   retry+ckpt   periodic checkpoints bank progress, reruns resume from
//                the last checkpoint instead of zero;
//   +placement   checkpointing plus proactive drain on pre-failure
//                alerts (clean migration off the doomed node) and
//                failure-aware node selection that steers new jobs away
//                from predicted-failing / failure-prone nodes.
//
// Headline invariants, checked by the bench at every (mtbf, drop) point
// (a failed check makes it exit 1):
//   * baseline reports jobs_failed > 0 (the failure pressure is real);
//   * every retry arm reports jobs_failed == 0: no job is permanently
//     lost once the retry budget exists;
//   * lost node-seconds strictly decrease retry -> retry+ckpt ->
//     +placement, and +placement loses less than baseline.
// The sweep shows the actual trade-off: checkpoint overhead and backoff
// waits buy goodput and survival.
#include <iterator>

#include "bench_common.hpp"

using namespace eslurm;

namespace {

struct Arm {
  const char* name;
  int max_retries;
  bool checkpoint;
  bool placement;  ///< proactive drain + failure-aware node selection
};

/// The checks in main() index a point's arms in this order.
constexpr Arm kArms[] = {
    {"baseline", 0, false, false},
    {"retry", 10, false, false},
    {"retry+ckpt", 10, true, false},
    {"+placement", 10, true, true},
};
constexpr std::size_t kArmCount = std::size(kArms);
static_assert(kArmCount == 4, "one baseline and three recovery arms per point");

struct Cell {
  double mtbf_hours = 0.0;
  double drop_prob = 0.0;
  const Arm* arm = nullptr;

  double jobs_submitted = 0.0;
  double jobs_completed = 0.0;
  double jobs_failed = 0.0;
  double failure_rate = 0.0;      ///< failed / (completed + failed)
  double kills = 0.0;             ///< node-death allocation kills
  double retries = 0.0;
  double migrations = 0.0;        ///< proactive drain-and-requeue moves
  double lost_node_seconds = 0.0;
  double ckpt_node_seconds = 0.0; ///< checkpoint stall overhead
  double goodput = 0.0;           ///< completed work node-s / capacity
  double avg_wait_s = 0.0;
};

/// Deterministic workload: submissions over the first 90 minutes,
/// runtimes long enough that node deaths interrupt a meaningful slice of
/// attempts, everything resolvable inside the horizon even after a few
/// backoff rounds.
std::vector<sched::Job> workload(std::size_t count) {
  const int node_cycle[] = {8, 16, 24, 32};
  const SimTime runtime_cycle[] = {minutes(20), minutes(35), minutes(50)};
  std::vector<sched::Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sched::Job job;
    job.id = 1 + i;
    job.user = "u" + std::to_string(i % 5);
    job.name = "app";
    job.nodes = node_cycle[i % 4];
    job.cores = job.nodes * 12;
    job.submit_time = seconds(30) + (minutes(90) - seconds(30)) *
                                        static_cast<SimTime>(i) /
                                        static_cast<SimTime>(count);
    job.actual_runtime = runtime_cycle[i % 3];
    job.user_estimate = job.actual_runtime * 2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void run_cell(bench::Harness& harness, Cell& cell, std::size_t nodes,
              std::size_t job_count, SimTime horizon, std::uint64_t seed,
              telemetry::Telemetry* telemetry) {
  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = nodes;
  config.satellite_count = 2;
  config.horizon = horizon;
  config.seed = seed;  // same seed across arms: identical failure trace
  config.telemetry = telemetry;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = cell.mtbf_hours;
  config.failure_params.repair_mean_hours = 0.5;
  config.chaos.drop_prob = cell.drop_prob;

  auto& recovery = config.rm_config.recovery;
  recovery.enabled = true;
  recovery.max_retries = cell.arm->max_retries;
  if (cell.arm->checkpoint) {
    recovery.checkpoint_interval = minutes(10);
    recovery.checkpoint_cost = seconds(10);
  }
  recovery.proactive_drain = cell.arm->placement;
  recovery.fault_aware_placement = cell.arm->placement;

  core::Experiment experiment(config);
  experiment.submit_trace(workload(job_count));
  experiment.run();
  harness.record_events(experiment.engine().executed_events());

  const auto report = experiment.report();
  const auto& stats = experiment.manager().recovery_stats();
  const auto& pool = experiment.manager().pool();
  cell.jobs_submitted = static_cast<double>(job_count);
  cell.jobs_failed = static_cast<double>(stats.jobs_failed);
  cell.kills = static_cast<double>(stats.node_failure_kills);
  cell.retries = static_cast<double>(stats.retries);
  cell.migrations = static_cast<double>(stats.proactive_migrations);
  cell.lost_node_seconds = stats.lost_node_seconds;
  cell.ckpt_node_seconds = stats.checkpoint_node_seconds;
  cell.avg_wait_s = report.avg_wait_seconds;
  double completed_node_seconds = 0.0;
  for (const sched::JobId id : pool.finished()) {
    const sched::Job& job = pool.get(id);
    if (job.state != sched::JobState::Completed) continue;
    cell.jobs_completed += 1.0;
    completed_node_seconds +=
        static_cast<double>(job.nodes) * to_seconds(job.actual_runtime);
  }
  const double resolved = cell.jobs_completed + cell.jobs_failed;
  cell.failure_rate = resolved > 0.0 ? cell.jobs_failed / resolved : 0.0;
  cell.goodput = completed_node_seconds /
                 (static_cast<double>(nodes) * to_seconds(horizon));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("fault_tolerance", "fault tolerance",
                         "node MTBF x chaos vs job survival across four "
                         "recovery arms (retry / checkpoint / placement)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 96 : 256;
  const std::size_t job_count = harness.smoke() ? 36 : 96;
  const SimTime horizon = hours(5);
  const std::vector<double> mtbfs =
      harness.smoke() ? std::vector<double>{24.0} : std::vector<double>{24.0, 48.0};
  const std::vector<double> drops =
      harness.smoke() ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.02};

  std::vector<Cell> cells;
  for (const double mtbf : mtbfs)
    for (const double drop : drops)
      for (const Arm& arm : kArms) cells.push_back({mtbf, drop, &arm});

  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    // One seed per (mtbf, drop) point -- the four arms of a point see the
    // exact same failure trace, making the columns directly comparable.
    run_cell(harness, cells[i], nodes, job_count, horizon,
             derive_seed(0xFA417, static_cast<std::uint64_t>(i / kArmCount)),
             telemetry);
  });

  std::printf("\nfault-tolerance sweep (%zu nodes, %zu jobs, %.0fh horizon)\n",
              nodes, job_count, to_seconds(horizon) / 3600.0);
  Table table({"mtbf (h)", "drop", "arm", "completed", "failed", "fail rate",
               "kills", "retries", "migrations", "lost node-s", "ckpt node-s",
               "goodput", "wait (s)"});
  const auto count = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  const auto fixed = [](double v, int decimals) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return std::string(buf);
  };
  for (Cell& cell : cells) {
    table.add_row({count(cell.mtbf_hours), fixed(cell.drop_prob, 2),
                   cell.arm->name, count(cell.jobs_completed),
                   count(cell.jobs_failed), fixed(cell.failure_rate, 4),
                   count(cell.kills), count(cell.retries),
                   count(cell.migrations), count(cell.lost_node_seconds),
                   count(cell.ckpt_node_seconds), fixed(cell.goodput, 4),
                   fixed(cell.avg_wait_s, 1)});
    harness.record_point(
        "mtbf=" + count(cell.mtbf_hours) + "h/drop=" +
            fixed(cell.drop_prob, 2) + "/" + cell.arm->name,
        {{"mtbf_hours", count(cell.mtbf_hours)},
         {"drop_prob", fixed(cell.drop_prob, 2)},
         {"arm", cell.arm->name},
         {"nodes", std::to_string(nodes)}},
        {{"jobs_submitted", cell.jobs_submitted},
         {"jobs_completed", cell.jobs_completed},
         {"jobs_failed", cell.jobs_failed},
         {"failure_rate", cell.failure_rate},
         {"kills", cell.kills},
         {"retries", cell.retries},
         {"migrations", cell.migrations},
         {"lost_node_seconds", cell.lost_node_seconds},
         {"ckpt_node_seconds", cell.ckpt_node_seconds},
         {"goodput", cell.goodput},
         {"avg_wait_s", cell.avg_wait_s}});
  }
  table.print();
  std::printf("[baseline must fail jobs at every point; retry arms must "
              "report failed = 0; lost node-s must strictly decrease "
              "retry -> retry+ckpt -> +placement]\n");

  // The arms of one (mtbf, drop) point are consecutive cells, in kArms
  // order: baseline, retry, retry+ckpt, +placement.
  std::string unharmed, failed, not_decreasing;  // failing labels
  for (std::size_t p = 0; p < cells.size(); p += kArmCount) {
    const Cell* arm = &cells[p];
    const std::string at = " mtbf=" + count(arm->mtbf_hours) + "h/drop=" +
                           fixed(arm->drop_prob, 2);
    if (!(arm[0].jobs_failed > 0.0)) unharmed += at;
    for (std::size_t a = 1; a < kArmCount; ++a)
      if (arm[a].jobs_failed != 0.0) failed += at + "/" + arm[a].arm->name;
    const auto lost = [&](std::size_t a) { return arm[a].lost_node_seconds; };
    if (!(lost(1) > lost(2) && lost(2) > lost(3) && lost(3) < lost(0)))
      not_decreasing += at;
  }
  harness.headline({"jobs_completed", "jobs_failed", "failure_rate",
                    "lost_node_seconds", "ckpt_node_seconds", "goodput"});
  harness.check("baseline fails jobs", unharmed.empty(),
                "baseline failed no jobs at" + unharmed);
  harness.check("retry arms fail 0 jobs", failed.empty(),
                "jobs failed at" + failed);
  harness.check("lost node-seconds strictly decrease", not_decreasing.empty(),
                "retry > retry+ckpt > +placement < baseline broken at" +
                    not_decreasing);
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
