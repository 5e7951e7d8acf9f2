#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/generator.hpp"

namespace perfbench {

using namespace eslurm;

namespace {

constexpr std::size_t kCtlNodes = 102400;
constexpr std::size_t kBacklogNodes = 1024;
constexpr std::size_t kFaultNodes = 16384;

trace::WorkloadProfile tianhe2a(std::uint64_t seed, std::size_t nodes) {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.seed = 0x7ea5e + seed;
  profile.max_nodes_per_job =
      std::min<int>(profile.max_nodes_per_job, static_cast<int>(nodes));
  return profile;
}

/// sched_backlog's trace: QoS and account tags for the policy scheduler,
/// and jobs capped at a quarter of the machine so no job is wider than
/// anything the policy can ever grant.  The trace is the same for every
/// seed; the seed drives the world (node failures, network jitter, the
/// RM's and estimator's streams).  The policy pass costs time in
/// proportion to the queue depth, and a fresh trace per seed moved the
/// depth at the horizon by 3x (365 vs 1,135 pending jobs) and the host
/// time by up to 1.5x -- more than any end-to-end bound allows.
constexpr std::uint64_t kBacklogTraceSeed = 1;

trace::WorkloadProfile backlog_profile() {
  trace::WorkloadProfile profile = tianhe2a(kBacklogTraceSeed, kBacklogNodes);
  profile.qos_high_frac = 0.10;
  profile.qos_low_frac = 0.20;
  profile.account_count = 8;
  profile.account_depth = 2;
  profile.max_nodes_per_job = static_cast<int>(kBacklogNodes) / 4;
  return profile;
}

/// `job_count` jobs over `duration` whose runtimes are scaled so the
/// offered in-window load (node-seconds that can land in [0, duration)
/// over capacity) is `load`.  Job sizes and runtimes are heavy tailed, so
/// an unscaled trace's load swings several-fold from seed to seed; fixing
/// both the job count and the load keeps the scheduler's work per run
/// about the same for every seed.
std::vector<sched::Job> trace_for_load(const trace::WorkloadProfile& profile,
                                       std::size_t nodes, SimTime duration,
                                       std::size_t job_count, double load) {
  std::vector<sched::Job> jobs =
      trace::TraceGenerator(profile).generate_jobs(job_count, duration);
  const double capacity = static_cast<double>(nodes) * to_seconds(duration);
  const auto offered = [&](double scale) {
    double node_seconds = 0.0;
    for (const auto& job : jobs) {
      const double runtime = to_seconds(job.actual_runtime) * scale;
      node_seconds += job.nodes * std::min(runtime, to_seconds(duration - job.submit_time));
    }
    return node_seconds / capacity;
  };
  // Runtimes clipped at the window make the load sub-linear in the scale;
  // a few fixed-point steps converge well inside 1%.
  double scale = 1.0;
  for (int step = 0; step < 8; ++step) scale *= load / offered(scale);
  for (auto& job : jobs) {
    job.actual_runtime = std::max(seconds(1), static_cast<SimTime>(
                                                  static_cast<double>(job.actual_runtime) * scale));
    if (job.user_estimate > 0)
      job.user_estimate = std::max(minutes(1), static_cast<SimTime>(
                                                   static_cast<double>(job.user_estimate) * scale));
  }
  return jobs;
}

core::ExperimentConfig ctl100k(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = kCtlNodes;
  config.satellite_count = 2;
  config.horizon = hours(1);
  config.seed = seed;
  return config;
}

core::ExperimentConfig sched_backlog(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.rm = "slurm";
  config.compute_nodes = kBacklogNodes;
  config.horizon = hours(96);
  config.seed = seed;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 400.0;
  config.failure_params.repair_mean_hours = 6.0;
  auto& rm = config.rm_config;
  rm.scheduler = "policy";
  rm.policy.enabled = true;
  for (const auto& [account, parent] : trace::account_hierarchy(backlog_profile()))
    rm.policy.accounts.add_account(account, parent, 1.0, {});
  rm.use_runtime_estimation = true;
  rm.estimator.retrain_period = hours(4);
  return config;
}

core::ExperimentConfig faults16k(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = kFaultNodes;
  config.satellite_count = 4;
  config.horizon = hours(6);
  config.seed = seed;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 200.0;
  config.failure_params.repair_mean_hours = 2.0;
  config.chaos.drop_prob = 0.01;
  config.chaos.duplicate_prob = 0.005;
  config.chaos.master_kill_s = 3 * 3600.0;
  config.rm_config.recovery.enabled = true;
  config.rm_config.recovery.max_retries = 3;
  config.rm_config.ha.enabled = true;
  return config;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "ctl100k" || name == "sched_backlog" || name == "faults16k";
}

core::ExperimentConfig make_config(const std::string& name, std::uint64_t seed) {
  if (name == "ctl100k") return ctl100k(seed);
  if (name == "sched_backlog") return sched_backlog(seed);
  if (name == "faults16k") return faults16k(seed);
  throw std::invalid_argument("unknown workload " + name);
}

std::vector<sched::Job> make_trace(const std::string& name, std::uint64_t seed) {
  if (name == "ctl100k")
    return trace::TraceGenerator(tianhe2a(seed, kCtlNodes)).generate_jobs(200, hours(1));
  if (name == "sched_backlog")
    return trace_for_load(backlog_profile(), kBacklogNodes, hours(96), 9000, 1.5);
  if (name == "faults16k")
    return trace::TraceGenerator(tianhe2a(seed, kFaultNodes)).generate_jobs(400, hours(6));
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
