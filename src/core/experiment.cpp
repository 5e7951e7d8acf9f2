#include "core/experiment.hpp"

#include <stdexcept>

namespace eslurm::core {

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  const bool is_eslurm = config_.rm == "eslurm";
  const std::size_t satellites = is_eslurm ? config_.satellite_count : 0;
  const std::size_t total = 1 + satellites + config_.compute_nodes;

  engine_ = std::make_unique<sim::Engine>(config_.telemetry);
  network_ = std::make_unique<net::Network>(*engine_, total, config_.link,
                                            Rng(config_.seed ^ 0x4E7));
  cluster_ = std::make_unique<cluster::ClusterModel>(*engine_, total);
  network_->set_liveness(cluster_->liveness());

  if (config_.chaos.any()) {
    // Own seed stream, so enabling chaos never perturbs the network's
    // jitter rng and identical seeds give bit-identical fault schedules.
    chaos_ = std::make_unique<net::ChaosInjector>(*engine_, total,
                                                  Rng(config_.seed ^ 0xC4A05));
    net::ChaosPlan plan;
    if (config_.chaos.drop_prob > 0.0 || config_.chaos.duplicate_prob > 0.0 ||
        config_.chaos.delay_spike_prob > 0.0) {
      plan.ambient(config_.chaos.drop_prob, config_.chaos.duplicate_prob,
                   config_.chaos.delay_spike_prob,
                   from_seconds(config_.chaos.delay_spike_ms / 1e3));
    }
    if (config_.chaos.partition_start_s >= 0.0 &&
        config_.chaos.partition_duration_s > 0.0) {
      // The canonical tier cut: master on one side, the satellite tier
      // (or, without satellites, the whole compute plane) on the other.
      std::vector<net::NodeId> side_b;
      if (satellites > 0) {
        for (std::size_t i = 0; i < satellites; ++i)
          side_b.push_back(static_cast<net::NodeId>(1 + i));
      } else {
        for (std::size_t i = 1; i < total; ++i)
          side_b.push_back(static_cast<net::NodeId>(i));
      }
      plan.partition(from_seconds(config_.chaos.partition_start_s),
                     from_seconds(config_.chaos.partition_duration_s),
                     {static_cast<net::NodeId>(0)}, std::move(side_b));
    }
    if (config_.chaos.master_kill_s >= 0.0)
      plan.kill_master(from_seconds(config_.chaos.master_kill_s));
    chaos_->set_plan(std::move(plan));
    network_->set_chaos(chaos_.get());
  }

  failures_ = std::make_unique<cluster::FailureModel>(
      *cluster_, Rng(config_.seed ^ 0xFA11), config_.failure_params);
  monitoring_ = std::make_unique<cluster::MonitoringSystem>(
      *cluster_, *failures_, Rng(config_.seed ^ 0x30), config_.monitoring);

  rm::RmDeployment deployment;
  deployment.master = 0;
  for (std::size_t i = 0; i < satellites; ++i)
    deployment.satellites.push_back(static_cast<net::NodeId>(1 + i));
  for (std::size_t i = 0; i < config_.compute_nodes; ++i)
    deployment.compute.push_back(static_cast<net::NodeId>(1 + satellites + i));

  // Control infrastructure never receives injected failures: the paper's
  // master node is a managed, monitored machine (satellites *can* fail in
  // dedicated experiments via cluster().fail()).
  failures_->set_immune({deployment.master});

  rm::RmRuntimeConfig rm_config = config_.rm_config;
  rm_config.seed = config_.seed ^ 0x5EED;
  if (is_eslurm) {
    manager_ = std::make_unique<rm::EslurmRm>(
        *engine_, *network_, *cluster_, rm::eslurm_profile(), deployment, rm_config,
        monitoring_.get());
  } else {
    manager_ = std::make_unique<rm::CentralizedRm>(
        *engine_, *network_, *cluster_, rm::profile_by_name(config_.rm), deployment,
        rm_config);
  }

  if (rm_config.recovery.enabled) {
    // Failure-aware placement reads the monitoring substrate's health
    // verdicts; proactive drain rides the failure model's pre-failure
    // notice (the simulated analogue of a RAS/SMART alert landing before
    // the node actually dies).
    manager_->set_failure_predictor(monitoring_.get());
    if (rm_config.recovery.proactive_drain) {
      failures_->add_pre_failure_hook([this](net::NodeId node, SimTime fail_at) {
        manager_->note_predicted_failure(node, fail_at);
      });
    }
  }

  if (config_.frontend.clients.users > 0) {
    frontend::FrontendConfig fe_config = config_.frontend;
    fe_config.clients.seed = config_.seed ^ 0xF0E0;
    fe_config.gateway.transport_seed = config_.seed ^ 0xF0E1;
    frontend_ = std::make_unique<frontend::FrontEnd>(*engine_, *network_, *manager_,
                                                     fe_config);
  }
}

Experiment::~Experiment() = default;

rm::EslurmRm* Experiment::eslurm() {
  return dynamic_cast<rm::EslurmRm*>(manager_.get());
}

void Experiment::submit_trace(const std::vector<sched::Job>& jobs) {
  for (const auto& job : jobs) {
    if (job.submit_time >= config_.horizon) continue;
    // The arrival event captures only {this, index}: a whole Job would
    // overflow the engine's inline capture budget.  Each job is freed
    // when it arrives, so the trace does not outlive its arrivals.
    const std::size_t index = trace_.size();
    trace_.push_back(std::make_unique<sched::Job>(job));
    engine_->schedule_at(job.submit_time, [this, index] {
      manager_->submit(std::move(*trace_[index]));
      trace_[index].reset();
    });
  }
}

void Experiment::run() {
  if (!started_) {
    started_ = true;
    manager_->start(config_.horizon);
    // Master kills are read at start time so benches that install their
    // own ChaosPlan after construction get their crash points scheduled.
    if (chaos_) {
      for (const SimTime at : chaos_->plan().master_kills) {
        if (at >= config_.horizon) continue;
        engine_->schedule_at(at, [this] { manager_->inject_master_crash(); });
      }
    }
    if (frontend_) frontend_->start(config_.horizon);
    if (config_.enable_failures) {
      failures_->start(config_.horizon);
      monitoring_->start(config_.horizon);
    }
  }
  engine_->run_until(config_.horizon);
}

sched::SchedulingReport Experiment::report() const {
  return manager_->report(0, config_.horizon);
}

ExperimentConfig Experiment::config_from_text(const std::string& text) {
  const Config parsed = Config::parse(text);
  ExperimentConfig config;
  config.rm = parsed.get_or("resourcemanager", config.rm);
  config.compute_nodes = static_cast<std::size_t>(
      parsed.get_int("nodes", static_cast<std::int64_t>(config.compute_nodes)));
  config.satellite_count = static_cast<std::size_t>(parsed.get_int(
      "satellitenodes", static_cast<std::int64_t>(config.satellite_count)));
  config.horizon = hours(parsed.get_int("horizonhours", 24));
  config.seed = static_cast<std::uint64_t>(parsed.get_int("seed", 42));
  config.rm_config.bcast.tree_width =
      static_cast<int>(parsed.get_int("treewidth", config.rm_config.bcast.tree_width));
  config.rm_config.sched_interval =
      seconds(parsed.get_int("schedinterval", 30));
  config.rm_config.use_runtime_estimation =
      parsed.get_bool("useruntimeestimation", config.rm_config.use_runtime_estimation);
  config.rm_config.use_fp_tree =
      parsed.get_bool("usefptree", config.rm_config.use_fp_tree);
  config.rm_config.estimator.interest_window = static_cast<std::size_t>(parsed.get_int(
      "estimatorwindow",
      static_cast<std::int64_t>(config.rm_config.estimator.interest_window)));
  config.rm_config.estimator.alpha =
      parsed.get_double("estimatoralpha", config.rm_config.estimator.alpha);
  config.enable_failures = parsed.get_bool("enablefailures", false);
  config.failure_params.node_mtbf_hours =
      parsed.get_double("nodemtbfhours", config.failure_params.node_mtbf_hours);
  config.frontend.clients.users = static_cast<std::uint64_t>(parsed.get_int(
      "frontendusers", static_cast<std::int64_t>(config.frontend.clients.users)));
  config.frontend.gateway.cache_ttl = from_seconds(parsed.get_double(
      "cachettlseconds", to_seconds(config.frontend.gateway.cache_ttl)));
  config.rm_config.use_reliable_transport = parsed.get_bool(
      "usereliabletransport", config.rm_config.use_reliable_transport);
  config.chaos.drop_prob =
      parsed.get_double("chaosdropprob", config.chaos.drop_prob);
  config.chaos.duplicate_prob =
      parsed.get_double("chaosduplicateprob", config.chaos.duplicate_prob);
  config.chaos.delay_spike_prob =
      parsed.get_double("chaosdelayprob", config.chaos.delay_spike_prob);
  config.chaos.delay_spike_ms =
      parsed.get_double("chaosdelayms", config.chaos.delay_spike_ms);
  config.chaos.partition_start_s =
      parsed.get_double("chaospartitionstarts", config.chaos.partition_start_s);
  config.chaos.partition_duration_s = parsed.get_double(
      "chaospartitiondurations", config.chaos.partition_duration_s);
  config.chaos.master_kill_s =
      parsed.get_double("chaosmasterkills", config.chaos.master_kill_s);
  config.rm_config.ha.enabled =
      parsed.get_bool("haenabled", config.rm_config.ha.enabled);
  config.rm_config.ha.snapshot_interval = from_seconds(parsed.get_double(
      "hasnapshotintervals", to_seconds(config.rm_config.ha.snapshot_interval)));
  config.rm_config.ha.group_commit_interval = from_seconds(
      parsed.get_double("hagroupcommitms",
                        to_seconds(config.rm_config.ha.group_commit_interval) *
                            1e3) /
      1e3);
  config.rm_config.ha.standby_hb_interval = from_seconds(parsed.get_double(
      "haheartbeats", to_seconds(config.rm_config.ha.standby_hb_interval)));
  config.rm_config.ha.hb_miss_threshold = static_cast<int>(parsed.get_int(
      "haheartbeatmissthreshold", config.rm_config.ha.hb_miss_threshold));
  config.rm_config.scheduler =
      parsed.get_or("schedulertype", config.rm_config.scheduler);
  auto& policy = config.rm_config.policy;
  policy.enabled = parsed.get_bool("sched.policy.enabled", policy.enabled);
  // Turning the policy layer on selects the policy scheduler unless the
  // experiment pinned another one explicitly.
  if (policy.enabled && config.rm_config.scheduler == "easy")
    config.rm_config.scheduler = "policy";
  policy.enforce_limits =
      parsed.get_bool("sched.policy.enforcelimits", policy.enforce_limits);
  policy.enable_preemption =
      parsed.get_bool("sched.policy.preemption", policy.enable_preemption);
  {
    const std::string mode = parsed.get_or(
        "sched.policy.preemptmode",
        sched::policy::preempt_mode_name(policy.preempt_mode));
    if (mode == "cancel")
      policy.preempt_mode = sched::policy::PreemptMode::Cancel;
    else if (mode == "requeue")
      policy.preempt_mode = sched::policy::PreemptMode::Requeue;
    else if (mode == "off")
      policy.preempt_mode = sched::policy::PreemptMode::Off;
  }
  policy.preempt_wait = from_seconds(parsed.get_double(
      "sched.policy.preemptwaits", to_seconds(policy.preempt_wait)));
  policy.reservation_margin = from_seconds(parsed.get_double(
      "sched.policy.reservationmargins", to_seconds(policy.reservation_margin)));
  policy.qos_weight =
      parsed.get_double("sched.policy.qosweight", policy.qos_weight);
  auto& recovery = config.rm_config.recovery;
  recovery.enabled = parsed.get_bool("recovery.enabled", recovery.enabled);
  recovery.max_retries = static_cast<int>(
      parsed.get_int("recovery.maxretries", recovery.max_retries));
  recovery.backoff_base = from_seconds(parsed.get_double(
      "recovery.backoffbases", to_seconds(recovery.backoff_base)));
  recovery.backoff_factor =
      parsed.get_double("recovery.backofffactor", recovery.backoff_factor);
  recovery.backoff_max = from_seconds(parsed.get_double(
      "recovery.backoffmaxs", to_seconds(recovery.backoff_max)));
  recovery.checkpoint_interval = from_seconds(parsed.get_double(
      "recovery.checkpointintervals", to_seconds(recovery.checkpoint_interval)));
  recovery.checkpoint_cost = from_seconds(parsed.get_double(
      "recovery.checkpointcosts", to_seconds(recovery.checkpoint_cost)));
  recovery.proactive_drain =
      parsed.get_bool("recovery.proactivedrain", recovery.proactive_drain);
  recovery.fault_aware_placement = parsed.get_bool(
      "recovery.faultawareplacement", recovery.fault_aware_placement);
  recovery.placement_risk_weight = parsed.get_double(
      "recovery.riskweight", recovery.placement_risk_weight);
  return config;
}

}  // namespace eslurm::core
