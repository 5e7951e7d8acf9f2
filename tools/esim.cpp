// esim -- run a resource-management experiment from the command line.
//
//   esim --config cluster.conf --trace workload.trace
//   esim --rm slurm --nodes 4096 --profile tianhe-2a --jobs 2000 --hours 24
//   esim --rm eslurm --nodes 20480 --satellites 20 --profile ng-tianhe
//        --jobs 5000 --hours 48 --acct out.acct        (one command line)
//
// Either replays a trace file (trace_io format) or generates a workload
// from a named profile, runs the simulated cluster, and prints the
// scheduling report, master resource usage, and (for ESLURM) the
// satellite table.  Optionally dumps the accounting database.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("config", "slurm.conf-style experiment description file");
  args.add_option("rm", "resource manager (overrides config)", "eslurm");
  args.add_option("nodes", "compute node count (overrides config)", "1024");
  args.add_option("satellites", "satellite count (overrides config)", "2");
  args.add_option("hours", "simulated horizon in hours (overrides config)", "24");
  args.add_option("seed", "experiment seed (overrides config)", "42");
  args.add_option("trace", "workload trace file to replay");
  args.add_option("profile", "generate workload: tianhe-2a | ng-tianhe", "tianhe-2a");
  args.add_option("jobs", "generate workload: approximate job count", "2000");
  args.add_option("acct", "write the accounting database to this file");
  args.add_flag("estimation", "enable the runtime-estimation framework");
  args.add_flag("failures", "enable failure injection");
  args.add_option("chaos-drop", "message drop probability, 0-1 (overrides config)", "0");
  args.add_option("chaos-dup", "message duplication probability, 0-1 (overrides config)",
                  "0");
  args.add_option("chaos-delay", "delay-spike probability, 0-1 (overrides config)", "0");
  args.add_option("chaos-delay-ms", "mean delay-spike size in ms (overrides config)", "250");
  args.add_option("chaos-partition",
                  "master<->satellite partition as start:duration seconds");
  args.add_flag("no-reliable-transport",
                "raw sends for RM control traffic and RPC responses "
                "(no retry/backoff/dedup)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "esim: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage("esim", "Run an ESLURM-simulator experiment.").c_str(),
               stdout);
    return 0;
  }

  // Build the configuration: file first, then each flag that was given.
  core::ExperimentConfig config;
  if (const auto path = args.get("config")) {
    std::ifstream file(*path);
    if (!file) {
      std::fprintf(stderr, "esim: cannot read config '%s'\n", path->c_str());
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    config = core::Experiment::config_from_text(text.str());
  }
  config.rm = args.get_or("rm", config.rm);
  std::int64_t job_count = 0;
  try {
    config.compute_nodes = static_cast<std::size_t>(
        args.get_int("nodes", static_cast<std::int64_t>(config.compute_nodes)));
    config.satellite_count = static_cast<std::size_t>(
        args.get_int("satellites", static_cast<std::int64_t>(config.satellite_count)));
    config.horizon = hours(args.get_int("hours", config.horizon / hours(1)));
    config.seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.chaos.drop_prob = args.get_double("chaos-drop", config.chaos.drop_prob);
    config.chaos.duplicate_prob =
        args.get_double("chaos-dup", config.chaos.duplicate_prob);
    config.chaos.delay_spike_prob =
        args.get_double("chaos-delay", config.chaos.delay_spike_prob);
    config.chaos.delay_spike_ms =
        args.get_double("chaos-delay-ms", config.chaos.delay_spike_ms);
    job_count = args.get_int("jobs", 2000);
    if (const auto partition = args.get("chaos-partition")) {
      const auto colon = partition->find(':');
      const auto seconds_at = [&](std::size_t begin, std::size_t end) {
        const std::string text = partition->substr(begin, end - begin);
        char* stop = nullptr;
        const double value = std::strtod(text.c_str(), &stop);
        if (colon == std::string::npos || text.empty() || *stop != '\0')
          throw std::invalid_argument("--chaos-partition wants start:duration seconds, got '" +
                                      *partition + "'");
        return value;
      };
      config.chaos.partition_start_s = seconds_at(0, colon);
      config.chaos.partition_duration_s = seconds_at(colon + 1, partition->size());
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "esim: %s\n", error.what());
    return 2;
  }
  if (args.has_flag("estimation")) config.rm_config.use_runtime_estimation = true;
  if (args.has_flag("failures")) config.enable_failures = true;
  if (args.has_flag("no-reliable-transport"))
    config.rm_config.use_reliable_transport = false;

  // Workload: trace file or generated.
  std::vector<sched::Job> jobs;
  if (const auto path = args.get("trace")) {
    std::ifstream file(*path);
    if (!file) {
      std::fprintf(stderr, "esim: cannot read trace '%s'\n", path->c_str());
      return 1;
    }
    try {
      jobs = trace::read_trace(file);
    } catch (const std::invalid_argument& error) {  // a malformed line
      std::fprintf(stderr, "esim: %s: %s\n", path->c_str(), error.what());
      return 1;
    }
  } else {
    const std::string profile_name = args.get_or("profile", "tianhe-2a");
    trace::WorkloadProfile profile = profile_name == "ng-tianhe"
                                         ? trace::ng_tianhe_profile()
                                         : trace::tianhe2a_profile();
    profile.max_nodes_per_job =
        std::min<int>(profile.max_nodes_per_job,
                      static_cast<int>(config.compute_nodes));
    trace::TraceGenerator generator(profile);
    jobs = generator.generate_jobs(static_cast<std::size_t>(job_count), config.horizon);
  }

  std::printf("esim: %s on %zu nodes, %zu jobs, %lld h horizon, seed %llu\n",
              config.rm.c_str(), config.compute_nodes, jobs.size(),
              static_cast<long long>(config.horizon / hours(1)),
              static_cast<unsigned long long>(config.seed));

  core::Experiment experiment(config);
  experiment.submit_trace(jobs);
  experiment.run();

  const auto report = experiment.report();
  std::printf("\n=== scheduling report ===\n");
  std::printf("jobs finished        : %zu (%zu timed out)\n", report.jobs_finished,
              report.jobs_timed_out);
  std::printf("system utilization   : %.1f%%\n", 100.0 * report.system_utilization);
  std::printf("avg / p95 wait       : %.1f s / %.1f s\n", report.avg_wait_seconds,
              report.p95_wait_seconds);
  std::printf("avg bounded slowdown : %.2f\n", report.avg_bounded_slowdown);
  std::printf("launch requeues      : %llu, master crashes: %llu\n",
              (unsigned long long)experiment.manager().launch_requeues(),
              (unsigned long long)experiment.manager().crash_count());

  const auto& stats = experiment.manager().master_stats();
  std::printf("\n=== master daemon ===\n");
  std::printf("CPU time %.1f min | RSS %.1f MB | vmem %.2f GB | peak sockets %.0f\n",
              stats.cpu_seconds() / 60.0, stats.rss_mb(), stats.vmem_gb(),
              stats.socket_series().max_value());

  if (auto* eslurm_rm = experiment.eslurm()) {
    std::printf("\n=== satellites ===\n");
    Table table({"node", "state", "tasks", "avg nodes/task", "RSS (MB)"});
    for (const auto& sat : eslurm_rm->satellite_reports())
      table.add_row({std::to_string(sat.node), rm::satellite_state_name(sat.state),
                     std::to_string(sat.tasks_received),
                     format_double(sat.avg_nodes_per_task, 4),
                     format_double(sat.rss_mb, 4)});
    table.print();
  }

  if (auto* chaos = experiment.chaos()) {
    std::printf("\n=== network chaos ===\n");
    std::printf("dropped %llu (partitioned %llu) | duplicated %llu | delayed %llu\n",
                (unsigned long long)chaos->dropped(),
                (unsigned long long)chaos->partitioned(),
                (unsigned long long)chaos->duplicated(),
                (unsigned long long)chaos->delayed());
    if (const auto* eslurm_rm = experiment.eslurm(); eslurm_rm && eslurm_rm->transport()) {
      const net::ReliableTransport& rm_transport = *eslurm_rm->transport();
      std::printf("rm transport: sends %llu | retransmits %llu | permanent failures %llu | "
                  "duplicates suppressed %llu\n",
                  (unsigned long long)rm_transport.sends(),
                  (unsigned long long)rm_transport.retransmits(),
                  (unsigned long long)rm_transport.permanent_failures(),
                  (unsigned long long)rm_transport.duplicates_suppressed());
    }
  }

  if (const auto path = args.get("acct")) {
    std::ofstream file(*path);
    experiment.manager().accounting_db().save(file);
    std::printf("\naccounting database written to %s (%zu records)\n", path->c_str(),
                experiment.manager().accounting_db().size());
  }
  return 0;
}
