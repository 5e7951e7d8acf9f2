// HA failover sweep: snapshot cadence vs jobs lost / takeover time.
//
// A master crash is injected at three qualitatively different moments --
// mid-launch (the first wave of jobs is being dispatched), mid-backfill
// (deep queue, scheduler churning) and mid-snapshot (a snapshot push to
// the standby is in flight) -- for each snapshot cadence.  The standby
// satellite promotes itself from the replicated snapshot plus WAL tail.
//
// Headline invariants, checked by the bench at every point (a failed
// check makes it exit 1):
//   * jobs_lost == 0: every job whose submission the master acked (WAL
//     record replicated + acked) reaches a terminal state on the
//     promoted master;
//   * duplicate_launches == 0: recovery never starts a job that is
//     already running on the compute plane;
//   * promotions == 1 and takeover_ms > 0: the standby really took over.
// The cadence sweep shows the actual trade-off: longer snapshot
// intervals leave a longer WAL tail to replay (replay_records,
// takeover_ms grow), never lost jobs.
#include "bench_common.hpp"
#include "rm/ha_master.hpp"

using namespace eslurm;

namespace {

struct Cell {
  double cadence_s = 0.0;
  std::string scenario;  ///< mid-launch / mid-backfill / mid-snapshot
  double kill_s = 0.0;

  double promotions = 0.0;
  double acked = 0.0;
  double finished = 0.0;
  double jobs_lost = 0.0;
  double duplicate_launches = 0.0;
  double detection_ms = 0.0;
  double takeover_ms = 0.0;
  double replay_records = 0.0;
  double replay_records_per_sec = 0.0;
  double wal_bytes = 0.0;
  double snapshot_bytes = 0.0;
};

/// Deterministic mixed workload: submissions spread over the first hour,
/// runtimes short enough that everything finishes inside the horizon --
/// which is what makes "acked but never terminal" a true loss signal.
std::vector<sched::Job> workload(std::size_t count) {
  const int node_cycle[] = {8, 16, 32, 64};
  const SimTime runtime_cycle[] = {seconds(120), seconds(300), seconds(600)};
  std::vector<sched::Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sched::Job job;
    job.id = 1 + i;
    job.user = "u" + std::to_string(i % 7);
    job.name = "app";
    job.nodes = node_cycle[i % 4];
    job.cores = job.nodes * 12;
    job.submit_time = seconds(60) + (hours(1) - seconds(60)) *
                                        static_cast<SimTime>(i) /
                                        static_cast<SimTime>(count);
    job.actual_runtime = runtime_cycle[i % 3];
    job.user_estimate = job.actual_runtime * 2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void run_cell(bench::Harness& harness, Cell& cell, std::size_t nodes,
              std::size_t job_count, std::uint64_t seed,
              telemetry::Telemetry* telemetry) {
  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = nodes;
  config.satellite_count = 2;
  config.horizon = hours(2);
  config.seed = seed;
  config.telemetry = telemetry;
  config.rm_config.ha.enabled = true;
  config.rm_config.ha.snapshot_interval = from_seconds(cell.cadence_s);
  config.chaos.master_kill_s = cell.kill_s;

  core::Experiment experiment(config);
  experiment.submit_trace(workload(job_count));
  // Sample the WAL debt just before the kill: the committed-not-yet-
  // truncated bytes a crash at this instant forces the standby to hold
  // (end-of-run retained bytes are ~0, the last snapshot truncates them).
  experiment.engine().schedule_at(
      from_seconds(cell.kill_s) - milliseconds(1), [&experiment, &cell] {
        if (auto* e = experiment.eslurm(); e && e->ha())
          cell.wal_bytes = static_cast<double>(e->ha()->wal().retained_bytes());
      });
  experiment.run();
  harness.record_events(experiment.engine().executed_events());

  auto* rm = experiment.eslurm();
  auto* ha = rm ? rm->ha() : nullptr;
  if (!ha) return;
  cell.promotions = static_cast<double>(ha->promotions());
  cell.acked = static_cast<double>(ha->acked_jobs().size());
  cell.finished = static_cast<double>(experiment.report().jobs_finished);
  for (const sched::JobId id : ha->acked_jobs()) {
    if (!experiment.manager().pool().contains(id) ||
        !experiment.manager().pool().get(id).finished())
      cell.jobs_lost += 1.0;
  }
  cell.duplicate_launches = static_cast<double>(ha->duplicate_launches());
  cell.detection_ms = to_seconds(ha->last_detection()) * 1e3;
  cell.takeover_ms = to_seconds(ha->last_takeover()) * 1e3;
  cell.replay_records = static_cast<double>(ha->last_replay_records());
  const double replay_s =
      to_seconds(ha->last_takeover() - ha->last_detection());
  cell.replay_records_per_sec =
      replay_s > 0.0 ? cell.replay_records / replay_s : 0.0;
  cell.snapshot_bytes = static_cast<double>(ha->last_snapshot_bytes());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("ha_failover", "HA failover",
                         "snapshot cadence vs jobs lost / takeover time "
                         "under crash-at-worst-moment master kills",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 64 : 256;
  const std::size_t job_count = harness.smoke() ? 24 : 90;
  const std::vector<double> cadences =
      harness.smoke() ? std::vector<double>{120.0, 1800.0}
                      : std::vector<double>{120.0, 600.0, 1800.0};

  std::vector<Cell> cells;
  for (const double cadence : cadences) {
    // Crash points: while the first submissions launch; deep in the
    // queue an hour of churn later; and just after a snapshot tick, so
    // the snapshot/WAL hand-off is itself mid-flight when the master
    // dies.
    // 1777s sits on no cadence boundary, so the WAL tail at the
    // backfill crash genuinely depends on the snapshot interval.
    cells.push_back({cadence, "mid-launch", 65.0});
    cells.push_back({cadence, "mid-backfill", 1777.0});
    cells.push_back({cadence, "mid-snapshot", cadence + 0.05});
  }

  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    run_cell(harness, cells[i], nodes, job_count,
             derive_seed(0xFA170, static_cast<std::uint64_t>(i)), telemetry);
  });

  std::printf("\nfailover sweep (%zu nodes, %zu jobs, 2 satellites)\n", nodes,
              job_count);
  Table table({"snapshot (s)", "crash point", "acked", "finished", "lost",
               "dup launch", "detect (ms)", "takeover (ms)", "replayed",
               "wal bytes", "snap bytes"});
  const auto count = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  const auto fixed = [](double v, int decimals) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return std::string(buf);
  };
  std::string lost, duplicated, promotions, takeover;  // failing labels
  for (Cell& cell : cells) {
    const std::string label =
        "snap=" + count(cell.cadence_s) + "s/" + cell.scenario;
    if (cell.jobs_lost != 0.0) lost += " " + label;
    if (cell.duplicate_launches != 0.0) duplicated += " " + label;
    if (cell.promotions != 1.0) promotions += " " + label;
    if (!(cell.takeover_ms > 0.0)) takeover += " " + label;
    table.add_row({count(cell.cadence_s), cell.scenario, count(cell.acked),
                   count(cell.finished), count(cell.jobs_lost),
                   count(cell.duplicate_launches),
                   fixed(cell.detection_ms, 1), fixed(cell.takeover_ms, 1),
                   count(cell.replay_records), count(cell.wal_bytes),
                   count(cell.snapshot_bytes)});
    harness.record_point(
        label,
        {{"snapshot_interval_s", count(cell.cadence_s)},
         {"scenario", cell.scenario},
         {"kill_s", format_double(cell.kill_s, 2)},
         {"nodes", std::to_string(nodes)}},
        {{"promotions", cell.promotions},
         {"acked", cell.acked},
         {"finished", cell.finished},
         {"jobs_lost", cell.jobs_lost},
         {"duplicate_launches", cell.duplicate_launches},
         {"detection_ms", cell.detection_ms},
         {"takeover_ms", cell.takeover_ms},
         {"replay_records", cell.replay_records},
         {"replay_records_per_sec", cell.replay_records_per_sec},
         {"wal_bytes", cell.wal_bytes},
         {"snapshot_bytes", cell.snapshot_bytes}});
  }
  table.print();
  std::printf("[every row must report lost = 0 and dup launch = 0; longer "
              "snapshot cadences trade a longer WAL replay (replayed, "
              "takeover ms) for fewer snapshot pushes]\n");
  harness.headline({"jobs_lost", "duplicate_launches", "takeover_ms", "wal_bytes"});
  harness.check("jobs_lost == 0", lost.empty(), "jobs lost at" + lost);
  harness.check("duplicate_launches == 0", duplicated.empty(),
                "duplicate launches at" + duplicated);
  harness.check("promotions == 1", promotions.empty(),
                "the standby did not promote exactly once at" + promotions);
  harness.check("takeover_ms > 0", takeover.empty(),
                "no takeover time at" + takeover);
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
