// Fig. 7(f) of the paper: job occupation time vs job size on 4K nodes.
//
// Jobs of increasing width but a fixed 10 s runtime are loaded on an
// otherwise idle cluster; the occupation time is submission -> full
// resource release (allocation + launch broadcast + run + termination
// broadcast + reclaim).
//
// Paper shape: SGE, Torque and OpenPBS explode with job size (sequential
// per-node dispatch); LSF, Slurm and ESLURM grow slowly; ESLURM stays
// below ~15 s at every size.
#include "bench_common.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("fig7_job_occupation", "Fig. 7f",
                         "job occupation time vs job size (10 s jobs, 4K nodes)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 1024 : 4096;
  const std::vector<int> sizes =
      harness.smoke() ? std::vector<int>{64, 256, 1024}
                      : std::vector<int>{64, 256, 1024, 2048, 4096};
  const std::vector<std::string> rms{"sge", "torque", "openpbs",
                                     "lsf", "slurm",  "eslurm"};

  core::SweepSpec spec = harness.sweep_spec();
  for (const int size : sizes) {
    for (const std::string& rm : rms) {
      core::SweepPoint point;
      point.label = std::to_string(size) + "/" + rm;
      point.params = {{"job_nodes", std::to_string(size)}, {"rm", rm}};
      point.config.rm = rm;
      point.config.compute_nodes = nodes;
      point.config.satellite_count = 2;
      point.config.horizon = hours(4);
      point.config.seed = 11;
      point.config.rm_config.sched_interval = seconds(2);
      point.config.rm_config.enable_pings = false;  // isolate the dispatch path
      spec.points.push_back(std::move(point));
    }
  }

  const auto outcomes = core::run_sweep(spec, [&harness](const core::SweepTask& task) {
    const int job_nodes = std::atoi(task.point->params[0].second.c_str());
    core::Experiment experiment(task.config);
    // Three identical jobs back to back; report the mean occupation.
    std::vector<sched::Job> jobs;
    for (sched::JobId id = 1; id <= 3; ++id) {
      sched::Job job;
      job.id = id;
      job.user = "u";
      job.name = "fixed10s";
      job.nodes = job_nodes;
      job.cores = job_nodes * 12;
      job.submit_time = minutes(static_cast<std::int64_t>(id - 1) * 40);
      job.actual_runtime = seconds(10);
      job.user_estimate = minutes(5);
      jobs.push_back(std::move(job));
    }
    experiment.submit_trace(jobs);
    experiment.run();
    harness.record_events(experiment.engine().executed_events());
    return core::MetricRow{
        {"occupation_s", experiment.manager().occupation_seconds().mean()}};
  });

  Table table({"job nodes", "sge", "torque", "openpbs", "lsf", "slurm", "eslurm"});
  std::size_t cursor = 0;
  for (const int size : sizes) {
    std::vector<std::string> row{std::to_string(size)};
    for (std::size_t r = 0; r < rms.size(); ++r, ++cursor)
      row.push_back(format_double(
          bench::metric_mean(outcomes[cursor], "occupation_s"), 4));
    table.add_row(std::move(row));
  }
  table.print();
  harness.record_sweep(outcomes);
  std::printf("\n[paper: SGE/Torque/OpenPBS grow to unacceptable levels; LSF/Slurm\n"
              " grow mildly; ESLURM stays below ~15 s at every size]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
