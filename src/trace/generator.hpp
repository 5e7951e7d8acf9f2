// Synthetic workload trace generator.
//
// Mechanics (see workload.hpp for the statistics being matched):
//   * each user owns a rotating set of job configurations (app name,
//     node count, characteristic runtime);
//   * arrivals are a non-homogeneous Poisson process with a diurnal rate
//     profile; a user is picked per arrival by a Zipf draw;
//   * with `resubmit_prob` the arrival repeats one of the user's recent
//     configurations with a jittered runtime; otherwise a (possibly
//     churned) configuration is used fresh;
//   * long-running apps are preferentially submitted in the evening;
//   * the user estimate is the true runtime scaled by a P drawn from the
//     mixture of Fig. 5a (mostly overestimates), rounded up to the next
//     15-minute wall-clock value, as users actually do.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/job.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace eslurm::trace {

/// One submitted job of a trace: exactly a sched::Job in Pending state.
using TraceJob = sched::Job;

/// Deterministic user -> leaf account mapping for the profile's account
/// knobs (FNV-1a, stable across platforms); "" when account_count == 0.
std::string account_for_user(const WorkloadProfile& profile,
                             const std::string& user);

/// The (account, parent) edges implied by the profile's account knobs,
/// parents first so they can be fed to AccountTree::add_account in
/// order.  Empty when account_count == 0.
std::vector<std::pair<std::string, std::string>> account_hierarchy(
    const WorkloadProfile& profile);

class TraceGenerator {
 public:
  explicit TraceGenerator(WorkloadProfile profile);

  /// Generates all jobs submitted in [0, duration), submit-time ordered,
  /// with ids 1..n in submission order.
  std::vector<TraceJob> generate(SimTime duration);

  /// Generates approximately `target_jobs` jobs by scaling the arrival
  /// rate over the given duration.
  std::vector<TraceJob> generate_jobs(std::size_t target_jobs, SimTime duration);

  const WorkloadProfile& profile() const { return profile_; }

 private:
  struct JobConfig {
    std::size_t app_index = 0;
    int nodes = 1;
    double runtime_median_min = 30.0;
    double runtime_sigma = 0.35;  ///< within-config jitter (repeats correlate)
    double scaling_exponent = 0.0;  ///< runtime response to node changes
    bool long_job = false;
  };
  struct UserState {
    std::string name;
    std::vector<JobConfig> configs;       ///< rotating working set
    std::vector<std::size_t> recent;      ///< indexes into configs
  };

  struct AppInfo {
    std::string name;
    double median_minutes = 30.0;  ///< characteristic runtime at 8 nodes
    double scaling_exponent = 0.0; ///< runtime ~ (nodes/8)^exponent
    bool long_job = false;
  };

  /// A drawn job before the submit-time sort: every random quantity, no
  /// strings.  Names are copied in once, into the job's final position.
  struct Draft {
    SimTime submit = 0;
    SimTime actual_runtime = 0;
    SimTime user_estimate = 0;
    std::uint32_t user_index = 0;
    std::uint32_t app_index = 0;
    int nodes = 1;
  };

  JobConfig fresh_config();
  Draft draft(std::size_t user_index, const JobConfig& config, SimTime submit);
  double draw_estimate_ratio();
  double diurnal_rate_multiplier(SimTime t, bool long_job) const;

  /// Multiplicative runtime drift of an app at a simulated day (random
  /// walk, lazily extended).
  double app_drift(std::size_t app_index, SimTime at);

  WorkloadProfile profile_;
  Rng rng_;
  std::vector<AppInfo> apps_;  ///< global application catalog
  std::size_t size_ranks_ = 1;  ///< job sizes 1, 2, 4, ... up to max_nodes_per_job
  ZipfTable user_zipf_;
  ZipfTable app_zipf_;
  ZipfTable size_zipf_;
  ZipfTable recent_zipf_{1.0};  ///< rank among a user's recent configurations
  std::vector<std::vector<double>> drift_;  ///< per app, per day
  Rng drift_rng_{0xD21F7};
  /// QoS tags draw from their own stream (like drift_rng_): enabling a
  /// mix never perturbs the base workload, and zero fractions draw
  /// nothing, keeping traces bit-identical to pre-policy profiles.
  Rng policy_rng_{0x905C1};
};

}  // namespace eslurm::trace
