// Fig. 9 of the paper: full-scale Tianhe-2A (16,384 nodes), Slurm vs
// ESLURM with two satellite nodes, 24 hours.
//
//   (a)-(c) master CPU / memory / sockets: ESLURM uses < 40% of Slurm's
//           CPU time, saves > 80% of the memory, and cuts concurrent
//           sockets by > 10x;
//   (d)-(f) the two satellites share the relayed load evenly (~100 CPU
//           minutes total, ~80 MB RSS each, < 80 sockets peak).
#include "bench_common.hpp"

using namespace eslurm;

namespace {

core::MetricRow collect(const std::string& prefix, const rm::DaemonStats& stats) {
  return {{prefix + "cpu_minutes", stats.cpu_seconds() / 60.0},
          {prefix + "vmem_peak_gb", stats.vmem_series().max_value()},
          {prefix + "rss_peak_mb", stats.rss_series().max_value()},
          {prefix + "sockets_avg", stats.socket_series().mean_value()},
          {prefix + "sockets_peak", stats.socket_series().max_value()}};
}

}  // namespace

int main(int argc, char** argv) {
  // --nodes N overrides the cluster width (e.g. --smoke --nodes 102400
  // for the 100K-node CI smoke).  Stripped here because bench::Harness
  // rejects flags it does not know.
  std::size_t nodes_override = 0;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--nodes" && i + 1 < argc)
      nodes_override = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    else
      args.push_back(argv[i]);
  }
  bench::Harness harness("fig9_fullscale", "Fig. 9", "Slurm vs ESLURM on a Tianhe-2A workload",
                         bench::Uses{.jobs = true, .telemetry = true},
                         static_cast<int>(args.size()), args.data());
  const std::size_t nodes =
      nodes_override ? nodes_override : (harness.smoke() ? 2048 : 16384);
  // At 64K+ nodes the smoke preset shortens the horizon further so the
  // 100K world still finishes inside a CI budget.
  const bool huge = nodes >= 65536;
  const SimTime horizon =
      harness.smoke() ? (huge ? hours(1) : hours(6)) : hours(24);
  const std::size_t job_count = harness.smoke() ? (huge ? 200 : 400) : 2500;
  std::printf("scale: %zu nodes, %.0f h, %zu target jobs\n", nodes,
              to_seconds(horizon) / 3600.0, job_count);

  core::SweepSpec spec = harness.sweep_spec();
  for (const char* rm : {"slurm", "eslurm"}) {
    core::SweepPoint point;
    point.label = rm;
    point.params = {{"rm", rm}, {"nodes", std::to_string(nodes)}};
    point.config.rm = rm;
    point.config.compute_nodes = nodes;
    point.config.satellite_count = 2;
    point.config.horizon = horizon;
    point.config.seed = 5;
    spec.points.push_back(std::move(point));
  }

  const auto outcomes = core::run_sweep(spec, [&](const core::SweepTask& task) {
    const auto jobs = bench::workload_count_for(nodes, horizon, job_count,
                                                trace::tianhe2a_profile(), 99);
    core::Experiment experiment(task.config);
    experiment.submit_trace(jobs);
    experiment.run();
    harness.record_events(experiment.engine().executed_events());
    core::MetricRow row = collect("", experiment.manager().master_stats());
    row.emplace_back("jobs_submitted", static_cast<double>(jobs.size()));
    if (auto* eslurm_rm = experiment.eslurm()) {
      for (int s = 0; s < 2; ++s) {
        const std::string prefix = "sat" + std::to_string(s + 1) + "_";
        for (auto& metric : collect(prefix, eslurm_rm->satellite_stats(s)))
          row.push_back(std::move(metric));
      }
    }
    std::printf("[%s done]\n", task.point->label.c_str());
    return row;
  });

  std::printf("\nworkload: %d jobs over %.0f h\n",
              static_cast<int>(bench::metric_mean(outcomes[0], "jobs_submitted")),
              to_seconds(horizon) / 3600.0);
  const core::PointOutcome& slurm = outcomes[0];
  const core::PointOutcome& eslurm_rm = outcomes[1];

  std::printf("\nFig 9a-c: master-node usage\n");
  Table master({"metric", "Slurm", "ESLURM", "ESLURM/Slurm"});
  auto add = [&](const char* metric, const char* key) {
    const double a = bench::metric_mean(slurm, key);
    const double b = bench::metric_mean(eslurm_rm, key);
    master.add_row({metric, format_double(a, 4), format_double(b, 4),
                    format_double(a > 0 ? b / a : 0, 3)});
  };
  add("CPU time (min)", "cpu_minutes");
  add("vmem peak (GB)", "vmem_peak_gb");
  add("RSS peak (MB)", "rss_peak_mb");
  add("sockets avg", "sockets_avg");
  add("sockets peak", "sockets_peak");
  master.print();
  std::printf("[paper: ESLURM < 40%% of Slurm's CPU time, > 80%% memory saving,\n"
              " > 10x fewer concurrent sockets]\n");

  std::printf("\nFig 9d-f: the two ESLURM satellites\n");
  Table sat({"satellite", "CPU (min)", "RSS peak (MB)", "sockets peak"});
  for (int s = 1; s <= 2; ++s) {
    const std::string prefix = "sat" + std::to_string(s) + "_";
    sat.add_row({std::to_string(s),
                 format_double(bench::metric_mean(eslurm_rm, prefix + "cpu_minutes"), 4),
                 format_double(bench::metric_mean(eslurm_rm, prefix + "rss_peak_mb"), 4),
                 format_double(bench::metric_mean(eslurm_rm, prefix + "sockets_peak"), 4)});
  }
  sat.print();
  harness.record_sweep(outcomes);
  std::printf("[paper: balanced load; ~50 CPU min each; ~80 MB RSS; < 80 sockets]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
