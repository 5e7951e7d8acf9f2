// The production policy layer of the "policy" scheduler preset: admission
// (QoS + account limits) -> multifactor priority with QoS boost and
// fair-tree fair-share -> reservation carve-out -> EASY backfill ->
// preemption victim selection.  The sched::Scheduler pipeline runs these
// stages; the RM executes its start decisions as usual and additionally
// asks for preemption orders after each pass (the scheduler itself never
// kills anything -- schedulers stay pure decision functions).
#pragma once

#include <unordered_set>
#include <vector>

#include "sched/policy/accounts.hpp"
#include "sched/policy/qos.hpp"
#include "sched/policy/reservation.hpp"
#include "sched/priority.hpp"

namespace eslurm::telemetry {
struct Telemetry;
}  // namespace eslurm::telemetry

namespace eslurm::sched {
class Scheduler;
}  // namespace eslurm::sched

namespace eslurm::sched::policy {

/// Everything the policy layer needs, with defaults chosen so that a
/// default-constructed config is inert: no limits registered, no
/// reservations, preemption off.
struct PolicyConfig {
  /// Read only by Experiment's `sched.policy.enabled` config-text key,
  /// which also switches an "easy" scheduler to "policy".  Neither the
  /// scheduler nor the RM reads it: RmRuntimeConfig::scheduler alone
  /// decides whether the policy stages run.
  bool enabled = false;
  /// Enforce QoS/user/account admission limits (holds, never rejects).
  bool enforce_limits = true;
  bool enable_preemption = false;
  PreemptMode preempt_mode = PreemptMode::Requeue;
  /// A blocked head must have been queued this long before victims are
  /// evicted for it -- preemption is a last resort, not a fast path.
  SimTime preempt_wait = minutes(2);
  /// Safety margin added to a job's kill-limit window when checking
  /// reservation overlap: covers the termination-broadcast lag between
  /// the kill firing and the nodes actually coming free.
  SimTime reservation_margin = seconds(60);
  /// x QosClass::priority_boost in the multifactor priority.
  double qos_weight = 1.0;
  PriorityWeights weights;
  QosSet qos = QosSet::standard();
  AccountTree accounts;
  ReservationCalendar reservations;
};

/// One eviction the RM should execute: stop `victim` after `grace`.
struct PreemptionOrder {
  JobId victim = kNoJob;
  PreemptMode mode = PreemptMode::Requeue;
  SimTime grace = 0;
};

/// State of the policy stages of the "policy" preset: limit admission,
/// reservation carve-out and preemption victim selection.  The
/// sched::Scheduler pipeline drives the stages; this object owns their
/// configuration, the fair-tree factors of the latest pass, the
/// preemption bookkeeping and the decision counters.
class PolicyState {
 public:
  explicit PolicyState(PolicyConfig config);

  /// RM bracketing of a victim's grace window, so repeated scheduling
  /// cycles do not stack duplicate orders on the same job.
  void note_preemption_pending(JobId id) { pending_preempt_.insert(id); }
  void note_preemption_done(JobId id) { pending_preempt_.erase(id); }

  /// Invariant audit: counts live-usage entries exceeding their limits
  /// (must stay 0 while admission is enforced).  Called by the RM each
  /// cycle; an independent recount of the pool's active jobs into its own
  /// scratch snapshot, so it never trusts the admission bookkeeping.
  void audit(const JobPool& pool);

  // --- state access ----------------------------------------------------
  const PolicyConfig& config() const { return config_; }
  AccountTree& accounts() { return config_.accounts; }
  const QosSet& qos() const { return config_.qos; }
  const ReservationCalendar& reservations() const { return config_.reservations; }

  // --- decision counters (mirrored into sched.policy.* telemetry) ------
  std::uint64_t limit_holds() const { return limit_holds_; }
  std::uint64_t reservation_carve_skips() const { return carve_skips_; }
  std::uint64_t limit_violations() const { return violations_; }
  std::uint64_t preempt_orders_issued() const { return orders_issued_; }

 private:
  friend class sched::Scheduler;

  /// Points the tree's and the QoS set's key translations at `pool`.
  void bind(const JobPool& pool);
  /// Fair-tree ordering input: binds `pool`, registers first-seen users
  /// under their job's account tag (the tree self-assembles, so fair-tree
  /// and account limits cover the whole population without
  /// sacctmgr-style setup), then recomputes the per-user factors.
  void refresh_factors(const JobPool& pool, SimTime now);
  /// The job's fair-tree factor from the latest pass (1 for a user the
  /// pass did not rank).
  double share_factor(const Job& job) const;
  /// Snapshot of live usage for this pass's admission decisions.
  void begin_admission(const JobPool& pool);
  /// True (and counted) when the job's QoS/user/account limits hold it.
  bool held_by_limits(const Job& job);
  /// Books an admitted start into this pass's usage snapshot.
  void admit(const Job& job);
  /// True when the job does not fit `free_nodes` minus the reserved
  /// capacity it may not touch; counted when the carve-out alone blocks it.
  bool carve_blocks(const Job& job, int free_nodes, SimTime now);
  /// End of the job's kill-limit window for reservation math (the RM
  /// kills at max(user_estimate, estimate_used)); kTimeNever when the
  /// job has no enforceable limit.
  SimTime kill_window_end(const Job& job, SimTime now) const;
  /// Charges consumed node-seconds to the job's account chain.
  void charge(const Job& job, SimTime ran, SimTime now);

  PolicyConfig config_;
  telemetry::Telemetry* telemetry_ = nullptr;

  /// Fair-tree factors from the latest pass by AccountTree user index
  /// (also used to price victims); users past the end get 1.
  std::vector<double> factors_;
  LiveUsage usage_;        ///< this pass's admission view
  LiveUsage audit_usage_;  ///< audit's recount
  std::unordered_set<JobId> pending_preempt_;
  JobId blocked_head_ = kNoJob;  ///< highest-priority job that could not start

  std::uint64_t limit_holds_ = 0;
  std::uint64_t carve_skips_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t orders_issued_ = 0;
};

}  // namespace eslurm::sched::policy
