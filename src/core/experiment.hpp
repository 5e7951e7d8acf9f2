// Public facade: one object that assembles the whole simulated world --
// cluster, network, failure injection, monitoring, a resource manager --
// and drives a workload through it.  This is the API the examples and
// every benchmark harness use.
//
//   eslurm::core::ExperimentConfig config;
//   config.rm = "eslurm";
//   config.compute_nodes = 4096;
//   config.satellite_count = 2;
//   eslurm::core::Experiment experiment(config);
//   experiment.submit_trace(jobs);
//   experiment.run();
//   auto report = experiment.report();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/failure_model.hpp"
#include "cluster/monitoring.hpp"
#include "frontend/frontend.hpp"
#include "net/chaos.hpp"
#include "rm/centralized_rm.hpp"
#include "rm/eslurm_rm.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/generator.hpp"
#include "util/config.hpp"

namespace eslurm::core {

struct ExperimentConfig {
  std::string rm = "eslurm";        ///< slurm/lsf/sge/torque/openpbs/eslurm
  std::size_t compute_nodes = 1024;
  std::size_t satellite_count = 2;  ///< ESLURM only (0 is allowed)
  SimTime horizon = hours(24);
  std::uint64_t seed = 42;

  net::LinkModel link;
  rm::RmRuntimeConfig rm_config;

  bool enable_failures = false;
  cluster::FailureModelParams failure_params;
  std::vector<cluster::BurstEvent> bursts;
  cluster::MonitoringParams monitoring;

  /// Network chaos (message drop/duplication/delay spikes plus an
  /// optional timed master<->satellite-tier partition).  All-zero (the
  /// default) builds no injector and leaves the network lossless.
  net::ChaosParams chaos;

  /// User-facing RPC front-end (Section II-B).  Disabled unless
  /// frontend.clients.users > 0.
  frontend::FrontendConfig frontend;

  /// Telemetry context this experiment publishes to (non-owning; must
  /// outlive the Experiment).  nullptr or a disabled context turns all
  /// instrumentation off.  Each concurrently-running Experiment needs its
  /// own context -- contexts are single-world, single-thread.
  telemetry::Telemetry* telemetry = nullptr;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds an ExperimentConfig from slurm.conf-style text.  Recognized
  /// keys: ResourceManager, Nodes, SatelliteNodes, TreeWidth,
  /// HorizonHours, Seed, SchedInterval, UseRuntimeEstimation, UseFpTree,
  /// EstimatorWindow, EstimatorAlpha, EnableFailures, NodeMtbfHours,
  /// FrontendUsers, CacheTtlSeconds, UseReliableTransport, ChaosDropProb,
  /// ChaosDuplicateProb, ChaosDelayProb, ChaosDelayMs,
  /// ChaosPartitionStartS, ChaosPartitionDurationS, ChaosMasterKillS,
  /// HaEnabled, HaSnapshotIntervalS, HaGroupCommitMs, HaHeartbeatS,
  /// HaHeartbeatMissThreshold, SchedulerType, Sched.Policy.Enabled,
  /// Sched.Policy.EnforceLimits, Sched.Policy.Preemption,
  /// Sched.Policy.PreemptMode, Sched.Policy.PreemptWaitS,
  /// Sched.Policy.ReservationMarginS, Sched.Policy.QosWeight,
  /// Recovery.Enabled, Recovery.MaxRetries, Recovery.BackoffBaseS,
  /// Recovery.BackoffFactor, Recovery.BackoffMaxS,
  /// Recovery.CheckpointIntervalS, Recovery.CheckpointCostS,
  /// Recovery.ProactiveDrain, Recovery.FaultAwarePlacement,
  /// Recovery.RiskWeight.
  static ExperimentConfig config_from_text(const std::string& text);

  // --- world access ----------------------------------------------------
  sim::Engine& engine() { return *engine_; }
  /// The injected telemetry context; nullptr when telemetry is off.
  telemetry::Telemetry* telemetry() { return engine_->telemetry(); }
  net::Network& network() { return *network_; }
  /// Non-null when config.chaos.any() built an injector.
  net::ChaosInjector* chaos() { return chaos_.get(); }
  cluster::ClusterModel& cluster() { return *cluster_; }
  cluster::FailureModel& failures() { return *failures_; }
  cluster::MonitoringSystem& monitoring() { return *monitoring_; }
  rm::ResourceManager& manager() { return *manager_; }
  /// Non-null when the deployed RM is ESLURM.
  rm::EslurmRm* eslurm();
  /// Non-null when the front-end is enabled (frontend.clients.users > 0).
  frontend::FrontEnd* frontend() { return frontend_.get(); }
  const ExperimentConfig& config() const { return config_; }

  // --- driving ---------------------------------------------------------
  /// Schedules every job's submission at its submit_time.
  void submit_trace(const std::vector<sched::Job>& jobs);
  /// Starts the RM (plus failures/monitoring if enabled) and runs the
  /// simulation to the horizon.
  void run();
  /// Scheduling metrics over the full horizon (Fig. 10).
  sched::SchedulingReport report() const;

 private:
  ExperimentConfig config_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ChaosInjector> chaos_;
  std::unique_ptr<cluster::ClusterModel> cluster_;
  std::unique_ptr<cluster::FailureModel> failures_;
  std::unique_ptr<cluster::MonitoringSystem> monitoring_;
  std::unique_ptr<rm::ResourceManager> manager_;
  std::unique_ptr<frontend::FrontEnd> frontend_;
  /// Jobs submit_trace scheduled, by arrival-event index; each is moved
  /// into the RM when its arrival fires.
  std::vector<std::unique_ptr<sched::Job>> trace_;
  bool started_ = false;
};

}  // namespace eslurm::core
