// QoS (quality-of-service) classes, the first leg of the policy suite:
// a named class attached to each job that carries a priority boost,
// per-user concurrency limits, and the preemption relationship --
// production Slurm's sacctmgr QOS with Priority, MaxJobsPU/MaxTRESPU,
// PreemptMode and GraceTime.
//
// The preemptor/preemptee matrix is expressed as Slurm does it: each
// class lists the classes it may preempt (`preempts`); a class opts out
// of ever being a victim with `preemptable = false` (exempt flag).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "sched/job_pool.hpp"

namespace eslurm::sched::policy {

/// What happens to a preempted job after its grace period.
enum class PreemptMode : std::uint8_t {
  Off,      ///< never preempt into / out of this class
  Requeue,  ///< victim returns to the queue head and reruns from scratch
  Cancel,   ///< victim is killed outright
};

const char* preempt_mode_name(PreemptMode mode);

struct QosClass {
  std::string name = "normal";
  double priority_boost = 0.0;  ///< added to the multifactor priority
  /// Per-user concurrency caps while holding this QoS (MaxJobsPU /
  /// MaxTRESPU=node equivalents).  Defaults are unlimited.
  int max_running_jobs_per_user = std::numeric_limits<int>::max();
  int max_nodes_per_user = std::numeric_limits<int>::max();
  /// Classes this one may preempt (empty: preempts nothing).
  std::vector<std::string> preempts;
  /// False marks the class exempt: its jobs are never chosen as victims.
  bool preemptable = true;
  /// Victims of this class get this long to wind down before the kill.
  SimTime grace_period = seconds(30);

  bool may_preempt(const std::string& victim_class) const;
};

/// Registry of QoS classes.  Jobs reference classes by name; unknown or
/// empty names resolve to the default class so untagged traces keep
/// working unchanged.
class QosSet {
 public:
  /// Adds a class; duplicate names throw.
  void add(QosClass qos);

  bool empty() const { return classes_.empty(); }
  std::size_t size() const { return classes_.size(); }
  const QosClass* find(const std::string& name) const;
  const std::vector<QosClass>& all() const { return classes_; }

  /// The class for a job: its named class, or the default for "" and
  /// unknown names.
  const QosClass& resolve(const std::string& name) const;
  /// resolve(job.qos) through the job's qos_key once `bind` named its
  /// pool (by name for a job with no keys).
  const QosClass& resolve(const Job& job) const;
  /// Points the key translation at `pool` (see AccountTree::bind).
  void bind(const JobPool& pool) { by_key_.bind(pool); }

  /// True when `preemptor_class` may evict `victim_class` per the matrix
  /// (the preemptor lists the victim AND the victim is not exempt).
  bool may_preempt(const std::string& preemptor_class,
                   const std::string& victim_class) const;

  /// The standard three-tier production layout: "high" (boosted, may
  /// preempt normal and low), "normal" (the default), "low" (scavenger
  /// tier: no boost, preemptable with a short grace).
  static QosSet standard();

 private:
  std::vector<QosClass> classes_;
  QosClass default_class_;  ///< resolve("") / unknown-name fallback
  /// Pool key -> index in classes_, or classes_.size() for default_class_;
  /// add() clears it.
  mutable KeyCache by_key_;
};

}  // namespace eslurm::sched::policy
