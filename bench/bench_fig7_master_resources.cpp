// Fig. 7(a)-(e) of the paper: master-node resource usage over 24 hours
// on 4K nodes of Tianhe-2A, for SGE / Torque / OpenPBS / LSF / Slurm /
// ESLURM, plus the satellite-node usage ESLURM reports in Section VII-A.
//
// Paper shape: Slurm and ESLURM have the lowest CPU load (ESLURM lowest);
// Slurm has the highest memory (~10 GB vmem) while ESLURM stays < 2 GB
// vmem / ~60 MB RSS; OpenPBS and SGE hold large numbers of concurrent
// TCP connections; LSF and Slurm show bursts >= 1000 sockets; ESLURM's
// master never exceeds ~100.
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("fig7_master_resources", "Fig. 7a-e",
                         "master-node resource usage, 4K nodes, 24 h",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 1024 : 4096;
  const SimTime horizon = harness.smoke() ? hours(6) : hours(24);
  // The paper's 4K-node partition ran about 1K jobs per day (Section
  // VII-A's core-hour extrapolation); scale the count with the window.
  const std::size_t job_count = harness.smoke() ? 300 : 1200;
  const std::vector<std::string> rms =
      harness.smoke() ? std::vector<std::string>{"slurm", "eslurm"}
                      : std::vector<std::string>{"sge",  "torque", "openpbs",
                                                 "lsf", "slurm",  "eslurm"};

  core::SweepSpec spec = harness.sweep_spec();
  for (const std::string& rm : rms) {
    core::SweepPoint point;
    point.label = rm;
    point.params = {{"rm", rm}, {"nodes", std::to_string(nodes)}};
    point.config.rm = rm;
    point.config.compute_nodes = nodes;
    point.config.satellite_count = 2;
    point.config.horizon = horizon;
    point.config.seed = 7;
    spec.points.push_back(std::move(point));
  }

  const auto outcomes =
      core::run_sweep(spec, [&](const core::SweepTask& task) {
        // Workload is a function of the scale only, so every RM (and
        // every replica) replays the identical trace.
        const auto jobs = bench::workload_count_for(nodes, horizon, job_count,
                                                    trace::tianhe2a_profile(), 77);
        core::Experiment experiment(task.config);
        experiment.submit_trace(jobs);
        experiment.run();
        harness.record_events(experiment.engine().executed_events());

        const auto& stats = experiment.manager().master_stats();
        core::MetricRow row{
            {"cpu_minutes", stats.cpu_seconds() / 60.0},
            {"cpu_util_avg", stats.cpu_util_series().mean_value()},
            {"vmem_peak_gb", stats.vmem_series().max_value()},
            {"rss_peak_mb", stats.rss_series().max_value()},
            {"sockets_avg", stats.socket_series().mean_value()},
            {"sockets_peak",
             std::max(stats.socket_series().max_value(),
                      experiment.network().socket_series(0).max_value() +
                          (task.config.rm == "sge" ? static_cast<double>(nodes)
                                                   : 0.0))},
            {"jobs_submitted", static_cast<double>(jobs.size())}};
        if (task.config.rm == "eslurm" && task.replica == 0) {
          RunningStats sat_cpu, sat_vmem, sat_rss;
          for (const auto& report : experiment.eslurm()->satellite_reports()) {
            sat_cpu.add(report.cpu_minutes);
            sat_vmem.add(report.vmem_gb);
            sat_rss.add(report.rss_mb);
          }
          row.emplace_back("satellite_cpu_minutes_avg", sat_cpu.mean());
          row.emplace_back("satellite_vmem_gb_avg", sat_vmem.mean());
          row.emplace_back("satellite_rss_mb_avg", sat_rss.mean());
        }
        std::printf("[%s done]\n", task.point->label.c_str());
        return row;
      });

  std::printf("\nworkload: %d jobs over %.0f h\n",
              static_cast<int>(bench::metric_mean(outcomes[0], "jobs_submitted")),
              to_seconds(horizon) / 3600.0);
  Table table({"RM", "CPU (min)", "CPU util avg %", "vmem peak (GB)", "RSS peak (MB)",
               "sockets avg", "sockets peak"});
  for (const core::PointOutcome& outcome : outcomes) {
    table.add_row({outcome.point.label,
                   format_double(bench::metric_mean(outcome, "cpu_minutes"), 4),
                   format_double(bench::metric_mean(outcome, "cpu_util_avg"), 3),
                   format_double(bench::metric_mean(outcome, "vmem_peak_gb"), 3),
                   format_double(bench::metric_mean(outcome, "rss_peak_mb"), 4),
                   format_double(bench::metric_mean(outcome, "sockets_avg"), 3),
                   format_double(bench::metric_mean(outcome, "sockets_peak"), 4)});
  }
  table.print();
  const core::PointOutcome& eslurm_outcome = outcomes.back();
  if (bench::metric_stats(eslurm_outcome, "satellite_cpu_minutes_avg")) {
    std::printf("\nESLURM satellite nodes (avg, Section VII-A: ~6 CPU-min,\n"
                "~1.2 GB vmem, ~42.6 MB RSS each): %.3f CPU-min, %.3f GB vmem, "
                "%.4f MB RSS\n",
                bench::metric_mean(eslurm_outcome, "satellite_cpu_minutes_avg"),
                bench::metric_mean(eslurm_outcome, "satellite_vmem_gb_avg"),
                bench::metric_mean(eslurm_outcome, "satellite_rss_mb_avg"));
  }
  harness.record_sweep(outcomes);
  std::printf("\n[paper: ESLURM lowest CPU + <2 GB vmem + ~60 MB RSS + <100 sockets;\n"
              " Slurm ~10 GB vmem; SGE/OpenPBS sustain huge connection counts;\n"
              " LSF/Slurm burst past 1000 sockets]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
