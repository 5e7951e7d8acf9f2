// Fig. 11a of the paper: heartbeat-broadcast time on the full-scale
// NG-Tianhe (20K+ nodes) as a function of the satellite count.
//
// Paper: ~20 satellites minimize the transfer time at this scale, which
// led to the deployment rule of one satellite per ~5K compute nodes.
#include "bench_common.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("fig11a_satellite_sweep", "Fig. 11a",
                         "heartbeat broadcast time vs satellite count (20K+ nodes)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);

  const std::size_t nodes = harness.smoke() ? 4096 : 20480;
  const std::vector<std::size_t> satellite_counts =
      harness.smoke() ? std::vector<std::size_t>{5, 20}
                      : std::vector<std::size_t>{1, 5, 10, 20, 30, 40, 50};

  core::SweepSpec spec = harness.sweep_spec();
  for (const std::size_t satellites : satellite_counts) {
    core::SweepPoint point;
    point.label = "satellites=" + std::to_string(satellites);
    point.params = {{"satellites", std::to_string(satellites)},
                    {"nodes", std::to_string(nodes)}};
    point.config.rm = "eslurm";
    point.config.compute_nodes = nodes;
    point.config.satellite_count = satellites;
    point.config.horizon = hours(1);
    point.config.seed = 21;
    point.config.rm_config.enable_pings = true;
    spec.points.push_back(std::move(point));
  }

  const auto outcomes = core::run_sweep(spec, [nodes,
                                               &harness](const core::SweepTask& task) {
    core::Experiment experiment(task.config);
    // Time explicit full-cluster heartbeat rounds: submit a full-width
    // job whose launch broadcast covers every compute node, five times.
    std::vector<sched::Job> jobs;
    for (sched::JobId id = 1; id <= 5; ++id) {
      sched::Job job;
      job.id = id;
      job.user = "hb";
      job.name = "heartbeat";
      job.nodes = static_cast<int>(nodes);
      job.cores = static_cast<int>(nodes) * 12;
      job.submit_time = minutes(static_cast<std::int64_t>(id - 1) * 10);
      job.actual_runtime = seconds(1);
      job.user_estimate = minutes(5);
      jobs.push_back(std::move(job));
    }
    experiment.submit_trace(jobs);
    experiment.run();
    harness.record_events(experiment.engine().executed_events());
    return core::MetricRow{
        {"launch_bcast_mean_s",
         experiment.manager().launch_broadcast_seconds().mean()},
        {"events", static_cast<double>(experiment.engine().executed_events())}};
  });

  Table table({"satellites", "avg heartbeat broadcast (s)"});
  for (const core::PointOutcome& outcome : outcomes) {
    table.add_row({outcome.point.params[0].second,
                   bench::format_stat(
                       bench::metric_stats(outcome, "launch_bcast_mean_s"), 4)});
    std::printf("[%s done]\n", outcome.point.label.c_str());
  }
  std::printf("\n");
  table.print();
  harness.record_sweep(outcomes);
  std::printf("\n[paper: minimum around 20 satellites at 20K+ nodes -> the rule of\n"
              " one satellite per ~5K compute nodes]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
