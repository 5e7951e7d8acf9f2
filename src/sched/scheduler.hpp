// Scheduling.  All evaluated RMs use backfill scheduling (the paper runs
// the backfill algorithm on every RM in Section VII-D); FCFS is kept as
// the simplest policy and as a test baseline.
//
// Every policy the RM can run is one pipeline, queue ordering x backfill
// mode, plus optional policy stages:
//
//   ordering  submit order | multifactor priority with the flat
//             FairshareTracker | multifactor with fair-tree factors and
//             the QoS boost
//   backfill  none (FCFS) | EASY | conservative
//   policy    limit admission, reservation carve-out and preemption
//             victim selection (sched/policy/policy.hpp)
//
// A combination is chosen by preset name only (make_scheduler):
//
//   "fcfs"          submit order, no backfill
//   "easy"          submit order, EASY -- the default, the paper's
//   "conservative"  submit order, conservative
//   "priority"      multifactor, EASY
//   "policy"        fair-tree + QoS, EASY, all policy stages
//
// The scheduler is a pure decision function over the job pool: given free
// nodes and the current time it returns the jobs to start now.  The RM
// executes the decisions (allocation, launch broadcast...).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sched/job_pool.hpp"
#include "sched/policy/policy.hpp"
#include "sched/priority.hpp"

namespace eslurm::telemetry {
struct Telemetry;
}  // namespace eslurm::telemetry

namespace eslurm::sched {

class Scheduler {
 public:
  /// The "easy" preset: submit order with EASY backfill.
  Scheduler();

  /// Returns ids of pending jobs to start now, in start order.
  std::vector<JobId> schedule(const JobPool& pool, int free_nodes, SimTime now);

  /// Injects the owning RM's telemetry context (nullptr to detach).
  void set_telemetry(telemetry::Telemetry* telemetry);
  /// RM release-path feedback: the job's resources were fully reclaimed.
  /// The multifactor orderings charge the observed consumption to their
  /// fair-share ledger; submit order ignores it.
  void on_job_released(const Job& job, SimTime now);
  /// RM preemption feedback: a running job was stopped early and either
  /// requeued or cancelled.  The partial consumption up to `now` is still
  /// real usage and is charged like a release.
  void on_job_preempted(const Job& job, SimTime now);

  /// Victims to evict so the job blocked in the latest pass can start:
  /// empty without policy stages, when preemption is off, nothing is
  /// blocked, the head has not waited `preempt_wait` yet, or eviction
  /// cannot possibly free enough nodes.  Ordered cheapest-victim-first
  /// (lowest priority, youngest start).  Defined in policy.cpp.
  std::vector<policy::PreemptionOrder> preemption_orders(const JobPool& pool,
                                                         int free_nodes, SimTime now);

  /// Policy stage state; non-null only for the "policy" preset.
  policy::PolicyState* policy() { return policy_.get(); }
  const policy::PolicyState* policy() const { return policy_.get(); }

  /// Priority of one job right now under this ordering (squeue-style
  /// introspection; also prices preemption victims).  The fair-tree
  /// ordering reads the latest pass's factors through the job's name
  /// keys, so `job` must be hand-made or come from that pass's pool.
  double priority_of(const Job& job, SimTime now) const;
  /// Flat fair-share ledger of the "priority" ordering.
  FairshareTracker& fairshare() { return fairshare_; }
  const PriorityWeights& weights() const { return calculator_.weights(); }
  std::uint64_t backfilled_jobs() const { return backfilled_; }

 private:
  friend Scheduler make_scheduler(std::string_view, int, const policy::PolicyConfig&,
                                  std::size_t);

  enum class Ordering : std::uint8_t { Submit, Multifactor, FairTree };
  enum class Backfill : std::uint8_t { None, Easy, Conservative };

  Scheduler(Ordering ordering, Backfill backfill, int cluster_nodes,
            const PriorityWeights& weights, std::size_t planning_depth);

  /// Fills ordered_ with the dependency-ready pending jobs in queue order.
  void rank(const JobPool& pool, SimTime now);
  /// Start the ordered queue while it fits (FCFS), then -- in EASY mode --
  /// reserve for the first blocked job and backfill any candidate that
  /// cannot delay it.  The policy stages, when present, hold jobs over
  /// their limits and keep starts out of reserved capacity.
  std::vector<JobId> start_and_backfill(const JobPool& pool, int free_nodes,
                                        SimTime now);
  /// Every queued job (up to the planning depth) gets a reservation on a
  /// free-node timeline; a job starts only if "now" is its earliest slot.
  std::vector<JobId> conservative_pass(const JobPool& pool, int free_nodes,
                                       SimTime now);
  /// Fills releases_ with (expected end, nodes) of every active job,
  /// unordered: the EASY shadow heap-selects the earliest few, the
  /// conservative timeline sorts them all.
  void collect_releases(const JobPool& pool, SimTime now);

  Ordering ordering_;
  Backfill backfill_;
  std::size_t planning_depth_;
  PriorityCalculator calculator_;
  FairshareTracker fairshare_;
  std::unique_ptr<policy::PolicyState> policy_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::uint64_t backfilled_ = 0;

  // Working sets reused across passes: the scheduler runs every cycle over
  // pools with hundreds of active jobs, and holding these as members keeps
  // the steady-state cycle free of vector reallocations.

  /// One step of the conservative free-node timeline: `level` nodes are
  /// free from `time` until the next step.  A flat sorted vector instead of
  /// a std::map: the planning loop is scan-heavy (every candidate walks its
  /// feasibility window), and contiguous steps keep those scans
  /// cache-linear while boundary inserts stay cheap at planning depths.
  struct Step {
    SimTime time;
    int level;
  };
  std::vector<std::pair<double, JobId>> ranked_;   ///< (-priority, id)
  std::vector<JobId> ordered_;
  std::vector<std::pair<SimTime, int>> releases_;  ///< (expected end, nodes)
  std::vector<Step> timeline_;
};

/// Planning depth of the conservative preset.
inline constexpr std::size_t kConservativePlanningDepth = 500;

/// Builds a preset: "fcfs", "easy", "conservative", "priority" or "policy";
/// any other name gives "easy".  "priority" reads `policy.weights`;
/// "policy" reads all of `policy`.  `planning_depth` bounds the
/// conservative preset's work per pass.
Scheduler make_scheduler(std::string_view preset, int cluster_nodes,
                         const policy::PolicyConfig& policy = policy::PolicyConfig(),
                         std::size_t planning_depth = kConservativePlanningDepth);

/// The default preset under its historical name.
using EasyBackfillScheduler = Scheduler;

/// Remaining-runtime helper: expected end of an active job based on the
/// estimate the scheduler used (never less than `now`).
SimTime expected_end(const Job& job, SimTime now);

/// afterok dependency check: true when the job may start (no dependency,
/// dependency completed, or dependency unknown to this pool).  Sets
/// *failed when the dependency terminated unsuccessfully, in which case
/// the job can never run.
bool dependency_ready(const JobPool& pool, const Job& job, bool* failed = nullptr);

}  // namespace eslurm::sched
