#include "sched/priority.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eslurm::sched {

double DecayedUsage::at(SimTime now, SimTime half_life) const {
  if (now <= as_of) return usage;
  const double half_lives = static_cast<double>(now - as_of) / half_life;
  return usage * std::exp2(-half_lives);
}

void DecayedUsage::add(double amount, SimTime now, SimTime half_life) {
  usage = at(now, half_life) + amount;
  as_of = now;
}

FairshareTracker::FairshareTracker(SimTime half_life) : half_life_(half_life) {
  if (half_life_ <= 0) throw std::invalid_argument("FairshareTracker: half_life > 0");
}

void FairshareTracker::record_usage(const std::string& user, double node_seconds,
                                    SimTime now) {
  usage_[user].add(node_seconds, now, half_life_);
}

double FairshareTracker::raw_usage(const std::string& user, SimTime now) const {
  const auto it = usage_.find(user);
  return it == usage_.end() ? 0.0 : it->second.at(now, half_life_);
}

double FairshareTracker::share_factor(const std::string& user, SimTime now,
                                      double cluster_node_seconds_per_halflife) const {
  const double normalized =
      raw_usage(user, now) / std::max(cluster_node_seconds_per_halflife, 1.0);
  return std::exp2(-normalized * 8.0);  // 1/8 of the machine-halflife halves it
}

PriorityCalculator::PriorityCalculator(PriorityWeights weights, int cluster_nodes,
                                       double cluster_node_seconds_per_halflife)
    : weights_(weights),
      cluster_nodes_(std::max(cluster_nodes, 1)),
      norm_(cluster_node_seconds_per_halflife) {}

double PriorityCalculator::priority(const Job& job, SimTime now,
                                    const FairshareTracker& fairshare) const {
  return priority_from_factors(job, now, fairshare.share_factor(job.user, now, norm_));
}

double PriorityCalculator::priority_from_factors(const Job& job, SimTime now,
                                                 double share_factor) const {
  const double age_days =
      std::min(to_hours(std::max<SimTime>(now - job.submit_time, 0)) / 24.0,
               weights_.age_cap_days);
  const double size =
      static_cast<double>(job.nodes) / static_cast<double>(cluster_nodes_);
  return weights_.age_per_day * age_days + weights_.job_size * size +
         weights_.fairshare * share_factor;
}

}  // namespace eslurm::sched
