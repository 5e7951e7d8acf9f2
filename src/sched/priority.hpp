// Multifactor job priority and fair-share accounting.
//
// The paper lists fairness among the optimization metrics an RM owns
// (Section I); production Slurm/ESLURM deployments order the backfill
// queue by a multifactor priority.  This module implements the standard
// factors: queue age, job size and fair-share (exponentially decayed
// usage per user).
#pragma once

#include <string>
#include <unordered_map>

#include "sched/job.hpp"

namespace eslurm::sched {

/// Usage that decays as `usage * exp2(-(now - as_of) / half_life)`: the
/// fair-share rule of FairshareTracker and of AccountTree's fair tree.
struct DecayedUsage {
  double usage = 0.0;
  SimTime as_of = 0;

  /// The usage decayed to `now` (unchanged for `now <= as_of`).
  double at(SimTime now, SimTime half_life) const;
  /// Decays the usage to `now`, then adds `amount`.
  void add(double amount, SimTime now, SimTime half_life);
};

/// Exponentially decayed per-user usage, as in Slurm's fair-share: a
/// user's share factor falls toward 0 as their recent consumption grows
/// relative to the cluster.
class FairshareTracker {
 public:
  /// `half_life`: how fast past usage is forgiven.
  explicit FairshareTracker(SimTime half_life = days(7));

  /// Records consumed node-seconds for a user at time `now`.
  void record_usage(const std::string& user, double node_seconds, SimTime now);

  /// Share factor in (0, 1]: 1 = no recent usage, ~0 = heavy user.
  /// `cluster_node_seconds_per_halflife` normalizes (capacity x half-life).
  double share_factor(const std::string& user, SimTime now,
                      double cluster_node_seconds_per_halflife) const;

  double raw_usage(const std::string& user, SimTime now) const;

 private:
  SimTime half_life_;
  std::unordered_map<std::string, DecayedUsage> usage_;
};

struct PriorityWeights {
  double age_per_day = 1000.0;   ///< priority per day of waiting
  double age_cap_days = 7.0;     ///< age factor saturates
  double job_size = 500.0;       ///< x (nodes / cluster nodes)
  double fairshare = 2000.0;     ///< x share factor
};

class PriorityCalculator {
 public:
  PriorityCalculator(PriorityWeights weights, int cluster_nodes,
                     double cluster_node_seconds_per_halflife);

  double priority(const Job& job, SimTime now, const FairshareTracker& fairshare) const;

  /// Priority with an externally supplied share factor in (0, 1] --
  /// hierarchical fair-tree policies replace the flat tracker's factor.
  double priority_from_factors(const Job& job, SimTime now, double share_factor) const;

  const PriorityWeights& weights() const { return weights_; }

 private:
  PriorityWeights weights_;
  int cluster_nodes_;
  double norm_;
};

}  // namespace eslurm::sched
