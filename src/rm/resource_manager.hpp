// Resource-manager core: job lifecycle (submit -> schedule -> launch
// broadcast -> run -> terminate broadcast -> release), node allocation,
// the periodic scheduling loop, node-health pinging, daemon resource
// accounting, and the overload-crash model observed in production
// (Section II-B: Slurm at 20K+ nodes crashed every ~42 h and took
// 90+ minutes to reboot).
//
// Concrete subclasses provide the *dispatch mechanism* -- how a control
// message reaches a set of compute nodes: directly from the master
// (centralized_rm.hpp) or via satellite nodes + FP-Trees (eslurm_rm.hpp).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/monitoring.hpp"
#include "comm/broadcaster.hpp"
#include "ha/options.hpp"
#include "ha/snapshot.hpp"
#include "predict/estimator.hpp"
#include "rm/accounting.hpp"
#include "rm/accounting_storage.hpp"
#include "rm/node_ledger.hpp"
#include "rm/profiles.hpp"
#include "sched/metrics.hpp"
#include "sched/policy/policy.hpp"
#include "sched/recovery/placement.hpp"
#include "sched/recovery/recovery.hpp"
#include "sched/scheduler.hpp"

namespace eslurm::rm {

class HaMaster;

/// Message type of inbound node-status reports (RM range 200+).
inline constexpr net::MessageType kMsgNodeReport = 210;

struct RmRuntimeConfig {
  SimTime sched_interval = seconds(30);
  SimTime sample_interval = seconds(30);
  SimTime dispatch_service = milliseconds(10);  ///< per-node master work
                                                ///< for Sequential styles
  /// ESLURM latency terms: satellite-side list processing per node, and
  /// master-side serialization per satellite subtask.  Their balance
  /// produces the optimal satellite count of Fig. 11a.
  double satellite_per_node_us = 40.0;
  SimTime master_subtask_service = milliseconds(2);
  comm::BroadcastOptions bcast;                 ///< timeouts/retries/width
  bool enable_pings = true;
  bool use_runtime_estimation = false;          ///< ESLURM's Section V
  bool use_fp_tree = true;                      ///< ablation switch
  /// Routes master<->satellite control traffic (subtask loads, result
  /// reports, heartbeats) and the relay tree through a ReliableTransport:
  /// transient message loss is retried with backoff instead of instantly
  /// counting as a BT/HB failure, and retransmitted subtask loads are
  /// deduplicated so a job is never launched twice.  With no chaos
  /// injector attached behaviour is bit-identical to raw sends.
  bool use_reliable_transport = true;
  predict::EstimatorConfig estimator;
  /// High-availability master (WAL + replicated snapshots + standby
  /// promotion).  Off by default; when off, no HA code path runs and
  /// behaviour is bit-identical to earlier builds.
  ha::HaOptions ha;
  /// Scheduler preset, built by sched::make_scheduler: "easy" (default,
  /// the paper's backfill), "fcfs", "conservative", "priority"
  /// (multifactor EASY), or "policy" (the full QoS/limits/reservations/
  /// preemption suite driven by `policy`).  Any other name runs "easy".
  std::string scheduler = "easy";
  /// Policy-suite knobs: "policy" reads all of them, "priority" only
  /// `policy.weights`, the other presets none.
  sched::policy::PolicyConfig policy;
  /// Job fault tolerance: node-death retry/requeue state machine,
  /// checkpoint model, proactive drain and failure-aware placement.
  /// Off by default; when off, no recovery code path runs and behaviour
  /// is bit-identical to earlier builds.
  sched::recovery::RecoveryOptions recovery;
  std::uint64_t seed = 1;
};

class ResourceManager {
 public:
  ResourceManager(sim::Engine& engine, net::Network& network,
                  cluster::ClusterModel& cluster, RmCostProfile profile,
                  RmDeployment deployment, RmRuntimeConfig config);
  virtual ~ResourceManager();
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Starts pings, the scheduling loop, sampling and the crash hazard.
  virtual void start(SimTime horizon);

  /// User job submission (job must be Pending; id must be unique).
  void submit(sched::Job job);

  // --- administrative node control (scontrol equivalents) ---------------
  /// Drains a compute node: it finishes its current job but receives no
  /// new work until resumed.
  void drain_node(NodeId node);
  void resume_node(NodeId node);

  const std::string& name() const { return profile_.name; }
  const RmRuntimeConfig& config() const { return config_; }
  sched::JobPool& pool() { return pool_; }
  const sched::JobPool& pool() const { return pool_; }
  DaemonStats& master_stats() { return *master_stats_; }
  const RmDeployment& deployment() const { return deployment_; }
  int total_compute_nodes() const { return static_cast<int>(deployment_.compute.size()); }
  int free_nodes() const { return static_cast<int>(nodes_.free_count()); }
  /// Free, sidelined, allocated, drained and believed-down nodes.
  const NodeLedger& nodes() const { return nodes_; }

  // --- reliability ---------------------------------------------------
  bool master_up() const { return master_up_; }
  std::uint64_t crash_count() const { return crashes_; }
  SimTime total_downtime() const { return downtime_; }
  /// Kills the master daemon now (chaos hook).  With HA enabled the
  /// standby satellite detects the death and promotes itself; without
  /// it the master reboots after profile_.reboot_time.
  void inject_master_crash() {
    if (master_up_) crash_master();
  }
  /// The HA subsystem, or nullptr when config.ha.enabled is false (or
  /// the deployment has no satellite to host the standby).
  HaMaster* ha() { return ha_.get(); }
  const HaMaster* ha() const { return ha_.get(); }
  /// Launches aborted because an allocated node turned out to be dead
  /// (the RM's health view lags reality by up to one ping interval).
  std::uint64_t launch_requeues() const { return requeues_; }

  // --- job fault tolerance ---------------------------------------------
  /// Risk source of the failure-aware placement scorer and the proactive
  /// drain path (normally the monitoring substrate).  Inert unless
  /// config.recovery turns those features on.
  void set_failure_predictor(const cluster::FailurePredictor* predictor) {
    failure_predictor_ = predictor;
  }
  /// Pre-failure notice (FailureModel hook): node is predicted to die at
  /// `fail_at`.  With proactive drain enabled the node is drained and
  /// its running job migrated off before the failure lands.
  void note_predicted_failure(NodeId node, SimTime fail_at);
  const sched::recovery::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  // --- policy suite ----------------------------------------------------
  sched::Scheduler& scheduler() { return scheduler_; }
  /// The policy stage state, or nullptr unless config.scheduler == "policy".
  sched::policy::PolicyState* policy() { return scheduler_.policy(); }
  const sched::policy::PolicyState* policy() const { return scheduler_.policy(); }
  /// Preemption outcomes executed by this RM (requeue / cancel mode).
  std::uint64_t preempt_requeues() const { return preempt_requeued_; }
  std::uint64_t preempt_cancels() const { return preempt_cancelled_; }
  /// Probe hits where payloads of non-allowed jobs held more capacity
  /// than a live reservation leaves spare (must stay 0: reserved windows
  /// are never backfilled across).
  std::uint64_t reservation_intrusions() const { return reservation_intrusions_; }

  // --- user request service (Section II-B) ------------------------------
  /// Records one end-to-end user request observed by the RPC front-end
  /// (`src/frontend`), which owns the client population, admission
  /// control and retry policy; this is the RM-side aggregation the
  /// Section II-B comparison reads.
  void note_user_request(double latency_seconds, bool failed) {
    request_times_.add(latency_seconds);
    ++requests_issued_;
    if (failed) ++requests_failed_;
  }
  const RunningStats& request_response_seconds() const { return request_times_; }
  std::uint64_t user_requests_issued() const { return requests_issued_; }
  std::uint64_t user_requests_failed() const { return requests_failed_; }
  /// Guarded against the empty stream: 0 issued requests -> 0.0, never a
  /// 0/0 division.
  double request_failure_rate() const {
    return requests_issued_ ? static_cast<double>(requests_failed_) /
                                  static_cast<double>(requests_issued_)
                            : 0.0;
  }

  // --- per-job occupation (Fig. 7f) ------------------------------------
  const RunningStats& occupation_seconds() const { return occupation_; }

  // --- broadcast timings (Fig. 8a: job loading / termination messages) --
  const RunningStats& launch_broadcast_seconds() const { return launch_bcast_; }
  const RunningStats& termination_broadcast_seconds() const { return term_bcast_; }

  /// Scheduling report over [t0, t1] (Fig. 10 metrics).
  sched::SchedulingReport report(SimTime t0, SimTime t1) const;

  predict::RuntimeEstimator* estimator() {
    return estimator_ ? estimator_.get() : nullptr;
  }

  /// Job-completion database (the slurmdbd co-located with the master).
  AccountingStorage& accounting_db() { return accounting_db_; }
  const AccountingStorage& accounting_db() const { return accounting_db_; }

 protected:
  /// Delivers a control message of `bytes` to `targets`; must invoke
  /// `done` exactly once when delivered-or-failed everywhere.
  virtual void dispatch(std::vector<NodeId> targets, std::size_t bytes,
                        comm::Broadcaster::Callback done) = 0;

  /// Periodic node-health round; default: dispatch a ping to all compute
  /// nodes.  ESLURM overrides to go through satellites with aggregation.
  virtual void ping_all();

  void run_sched_cycle();
  void try_start_jobs();
  void start_job(sched::JobId id);
  void job_ended(sched::JobId id, sched::JobState end_state);
  /// Executes the policy scheduler's preemption orders: each victim gets
  /// its grace period, then is stopped and requeued or cancelled.
  void apply_preemptions();
  void finish_preemption(sched::JobId id, sched::policy::PreemptMode mode);
  /// Audit probe fired inside reservation windows: counts capacity held
  /// by payloads (Starting/Running) of jobs a live reservation excludes.
  void probe_reservations();
  // --- job teardown ------------------------------------------------------
  /// What the give-back does once a termination broadcast completes
  /// (DESIGN.md §13 tabulates each outcome).
  enum class Teardown : std::uint8_t {
    End,      ///< already terminal (ended, cancelled): release, retire
    Requeue,  ///< preempted: reclaim, back to the queue head
    Retry,    ///< node death within the retry budget: reclaim, hold
    Migrate,  ///< predicted failure: reclaim, requeue with no backoff
    Fail,     ///< node death past the budget: reclaim, retire Failed
  };
  /// Cancels the armed run timer of a Running job.  False when there is
  /// none: the job is Starting (the launch-failure requeue owns it), its
  /// timer fired, or its teardown is already in flight.
  bool disarm_run_timer(sched::JobId id);
  /// The one termination broadcast ("job termination message"): stops
  /// the payload on the allocation, then gives the nodes back and moves
  /// the job as `outcome` says.  HA promotion re-issues it (End) for jobs
  /// whose termination died with the old master.
  void tear_down(sched::JobId id, Teardown outcome);
  /// Closes a terminal job's record: WAL release, pool release time,
  /// occupation, scheduler charge, accounting and the estimator's history.
  void retire(sched::JobId id);
  /// Pending plus active jobs: the master's tracked-job count.
  std::size_t live_jobs() const { return pool_.pending().size() + pool_.active().size(); }
  // --- recovery state machine (all gated on config_.recovery.enabled) --
  /// Cluster-observer entry points; only compute nodes reach them.
  void on_node_down(NodeId node);
  void on_node_up(NodeId node);
  /// Kills a Running allocation after a node death (proactive=false:
  /// charges a retry or turns the job terminal Failed) or migrates it
  /// off a predicted-failing node (proactive=true: free requeue).
  void kill_allocation(sched::JobId id, bool proactive);
  /// Retry backoff elapsed: the held job re-enters the queue head.
  void finish_hold(sched::JobId id);
  /// Un-drains a proactively drained node whose predicted failure never
  /// landed (false alarm) once its alert has cleared.
  void recheck_proactive_drain(NodeId node);
  // --- master outage -----------------------------------------------------
  /// The one place the master goes down: counts the crash, opens the
  /// outage, then hands over to begin_outage.
  void crash_master();
  /// What follows the crash.  Default: the daemon reboots in place after
  /// profile_.reboot_time.  ESLURM with HA fails over to the standby.
  virtual void begin_outage();
  /// The one place the master comes back (reboot or promotion): sums the
  /// downtime and closes the outage span.
  void recover_master();
  /// Runs the completions that reached no master during the outage.
  void replay_deferred_completions();

  // --- HA support ------------------------------------------------------
  /// Captures the live RM state (jobs, allocations, node health,
  /// accounting) as a snapshot image.
  ha::StateImage build_state_image() const;
  /// Aligns the job pool with the recovered image at promotion time:
  /// uncommitted submissions are dropped (the durable state never heard
  /// of them), half-launched jobs requeue, half-terminated jobs get
  /// their termination re-issued, running jobs are adopted unchanged.
  /// Telemetry counts each kind under `ha.promotion.*`.
  void reconcile_with_image(const ha::StateImage& image);

  sim::Engine& engine_;
  net::Network& net_;
  cluster::ClusterModel& cluster_;
  /// The experiment's telemetry context (via the engine); nullptr when
  /// telemetry is off.  Cached at construction.
  telemetry::Telemetry* telemetry_;
  RmCostProfile profile_;
  RmDeployment deployment_;
  RmRuntimeConfig config_;
  Rng rng_;

  /// Reconciles the *believed* node health, which allocation trusts, with
  /// the cluster after a ping round.
  void refresh_health_view();

  /// All node state; the RM changes it only through its transitions.
  NodeLedger nodes_;
  sched::JobPool pool_;
  /// The config_.scheduler preset; the default "easy" is the paper's
  /// EASY backfill in submit order.
  sched::Scheduler scheduler_;
  /// Armed run timers of running jobs; an entry disappears when its timer
  /// fires or a preemption or kill disarms it (its teardown is in flight).
  std::unordered_map<sched::JobId, sim::EventId> end_events_;
  std::uint64_t requeues_ = 0;
  // --- recovery state (empty / unused while config_.recovery is off) ---
  const cluster::FailurePredictor* failure_predictor_ = nullptr;
  std::unique_ptr<sched::recovery::PlacementScorer> placement_scorer_;
  sched::recovery::RecoveryStats recovery_stats_;
  std::uint64_t preempt_requeued_ = 0;
  std::uint64_t preempt_cancelled_ = 0;
  std::uint64_t reservation_intrusions_ = 0;

  RunningStats request_times_;
  std::uint64_t requests_issued_ = 0;
  std::uint64_t requests_failed_ = 0;

  std::unique_ptr<DaemonStats> master_stats_;
  std::unique_ptr<predict::RuntimeEstimator> estimator_;
  AccountingStorage accounting_db_;
  /// Non-null only when config_.ha.enabled and a standby exists; every
  /// HA hook below is gated on it, so disabled HA runs zero extra code.
  std::unique_ptr<HaMaster> ha_;

  SimTime horizon_ = 0;
  std::unique_ptr<sim::PeriodicTask> sched_task_;
  std::unique_ptr<sim::PeriodicTask> ping_task_;
  std::unique_ptr<sim::PeriodicTask> hazard_task_;

  std::unique_ptr<sim::PeriodicTask> report_task_;

  bool master_up_ = true;
  std::uint64_t crashes_ = 0;
  SimTime downtime_ = 0;
  SimTime crashed_at_ = 0;
  std::vector<std::pair<sched::JobId, sched::JobState>> deferred_completions_;

  RunningStats occupation_;
  RunningStats launch_bcast_;
  RunningStats term_bcast_;
};

}  // namespace eslurm::rm
