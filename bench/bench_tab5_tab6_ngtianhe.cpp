// Tables V and VI of the paper: ESLURM on the full-scale NG-Tianhe
// (20K+ nodes) with satellite counts 10..50 (setups SE1..SE5).
//
//   Table V  -- master resource usage grows mildly with the satellite
//               count (CPU 333->355 min, vmem ~10.7-10.9 GB, RSS
//               362->459 MB, sockets 8.5->30.2 over ten days);
//   Table VI -- satellites receive a similar number of tasks regardless
//               of pool size (~6.2-6.4K), but each task covers fewer
//               nodes as the pool grows, so per-satellite memory and
//               socket usage drop.
//
// The paper ran each setup for ten days; we simulate two days per setup
// and report per-day task counts alongside a x10 extrapolation, which is
// exact for this steady-state workload.
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("tab5_tab6_ngtianhe", "Tables V & VI",
                         "ESLURM on 20K+ nodes, SE1..SE5 (10..50 satellites)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 2048 : 20480;
  const SimTime horizon = harness.smoke() ? hours(8) : hours(48);
  const double sim_days = to_seconds(horizon) / 86400.0;
  const std::size_t job_count = harness.smoke() ? 250 : 1200;
  const int setups = harness.smoke() ? 2 : 5;

  core::SweepSpec spec = harness.sweep_spec();
  for (int se = 1; se <= setups; ++se) {
    const std::size_t satellites = static_cast<std::size_t>(se) * 10;
    core::SweepPoint point;
    point.label = "SE" + std::to_string(se);
    point.params = {{"setup", point.label},
                    {"satellites", std::to_string(satellites)},
                    {"nodes", std::to_string(nodes)}};
    point.config.rm = "eslurm";
    point.config.compute_nodes = nodes;
    point.config.satellite_count = satellites;
    point.config.horizon = horizon;
    point.config.seed = 17;
    spec.points.push_back(std::move(point));
  }

  const auto outcomes = core::run_sweep(spec, [&](const core::SweepTask& task) {
    const auto jobs = bench::workload_count_for(nodes, horizon, job_count,
                                                trace::ng_tianhe_profile(), 3);
    core::Experiment experiment(task.config);
    experiment.submit_trace(jobs);
    experiment.run();
    harness.record_events(experiment.engine().executed_events());

    const auto& master = experiment.manager().master_stats();
    // Average over the satellite pool (Table VI reports pool averages).
    RunningStats tasks, nodes_per_task, vmem, rss, sockets;
    for (const auto& report : experiment.eslurm()->satellite_reports()) {
      tasks.add(static_cast<double>(report.tasks_received));
      if (report.tasks_received > 0) nodes_per_task.add(report.avg_nodes_per_task);
      vmem.add(report.vmem_gb);
      rss.add(report.rss_mb);
      sockets.add(report.avg_sockets);
    }
    std::printf("[%s done]\n", task.point->label.c_str());
    return core::MetricRow{
        {"master_cpu_min_per_day", master.cpu_seconds() / 60.0 / sim_days},
        {"master_vmem_gb", master.vmem_series().max_value()},
        {"master_rss_mb", master.rss_series().max_value()},
        {"master_sockets_avg", master.socket_series().mean_value()},
        {"sat_tasks_10day", tasks.mean() / sim_days * 10.0},
        {"sat_nodes_per_task", nodes_per_task.mean()},
        {"sat_vmem_gb", vmem.mean()},
        {"sat_rss_mb", rss.mean()},
        {"sat_sockets_avg", sockets.mean()},
        {"jobs_submitted", static_cast<double>(jobs.size())}};
  });

  std::printf("\nworkload: %d jobs over %.1f days (paper: 10-day runs; steady "
              "state)\n",
              static_cast<int>(bench::metric_mean(outcomes[0], "jobs_submitted")),
              sim_days);

  Table tab5({"setup", "satellites", "master CPU (min/day)", "vmem (GB)", "RSS (MB)",
              "sockets avg"});
  Table tab6({"setup", "tasks/satellite (10-day equiv)", "avg nodes per task",
              "vmem (GB)", "RSS (MB)", "sockets avg"});
  for (const core::PointOutcome& outcome : outcomes) {
    tab5.add_row({outcome.point.label, outcome.point.params[1].second,
                  format_double(bench::metric_mean(outcome, "master_cpu_min_per_day"), 4),
                  format_double(bench::metric_mean(outcome, "master_vmem_gb"), 4),
                  format_double(bench::metric_mean(outcome, "master_rss_mb"), 4),
                  format_double(bench::metric_mean(outcome, "master_sockets_avg"), 3)});
    tab6.add_row({outcome.point.label,
                  format_double(bench::metric_mean(outcome, "sat_tasks_10day"), 4),
                  format_double(bench::metric_mean(outcome, "sat_nodes_per_task"), 4),
                  format_double(bench::metric_mean(outcome, "sat_vmem_gb"), 4),
                  format_double(bench::metric_mean(outcome, "sat_rss_mb"), 4),
                  format_double(bench::metric_mean(outcome, "sat_sockets_avg"), 3)});
  }

  std::printf("\nTable V: master-node resource usage\n");
  tab5.print();
  std::printf("[paper, over 10 days: CPU 333-355 min, vmem 10.7-10.9 GB,\n"
              " RSS 362->459 MB, sockets 8.5->30.2 -- all rising with satellites]\n");

  std::printf("\nTable VI: satellite averages\n");
  tab6.print();
  harness.record_sweep(outcomes);
  std::printf("[paper: ~6.2-6.4K tasks regardless of pool size; nodes/task\n"
              " 6076->1268; RSS 270->169 MB; sockets 118->70 -- falling]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
