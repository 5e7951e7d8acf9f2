#include "rm/resource_manager.hpp"

#include <algorithm>
#include <sstream>

#include "rm/ha_master.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::rm {

ResourceManager::ResourceManager(sim::Engine& engine, net::Network& network,
                                 cluster::ClusterModel& cluster, RmCostProfile profile,
                                 RmDeployment deployment, RmRuntimeConfig config)
    : engine_(engine),
      net_(network),
      cluster_(cluster),
      telemetry_(engine.telemetry()),
      profile_(std::move(profile)),
      deployment_(std::move(deployment)),
      config_(config),
      rng_(config.seed),
      nodes_(cluster_.size(), deployment_) {
  master_stats_ = std::make_unique<DaemonStats>(engine_, net_, deployment_.master,
                                                profile_.accounting);
  scheduler_ = sched::make_scheduler(
      config_.scheduler, static_cast<int>(deployment_.compute.size()), config_.policy);
  scheduler_.set_telemetry(telemetry_);
  if (config_.use_runtime_estimation) {
    estimator_ = std::make_unique<predict::RuntimeEstimator>(
        config_.estimator, Rng(config_.seed ^ 0xE5), telemetry_);
  }
  if (profile_.persistent_node_connections) {
    master_stats_->set_persistent_sockets(
        static_cast<int>(deployment_.compute.size()));
  }
  // Every inbound message at the master is a full RPC: protocol parsing,
  // global state locks, response marshalling.  This serialization is the
  // centralized bottleneck of Section II.
  net_.set_recv_processing(
      deployment_.master,
      from_seconds(profile_.accounting.cpu_us_per_message * 1e-6));
  // Node status reports arrive at the master (whichever node holds the
  // role now).  Beyond the accounting the network performs, record the
  // reporter's next heartbeat deadline in the cluster's SoA metadata: a
  // node is overdue if no report lands within two intervals.  Pure
  // bookkeeping -- no events are scheduled.
  net_.register_handler(kMsgNodeReport, [this](NodeId self, const net::Message& msg) {
    if (self == deployment_.master && msg.src < cluster_.size())
      cluster_.soa().report_deadline[msg.src] =
          engine_.now() + 2 * profile_.node_report_interval;
  });
}

ResourceManager::~ResourceManager() = default;

void ResourceManager::start(SimTime horizon) {
  horizon_ = horizon;
  master_stats_->start_sampling(config_.sample_interval, horizon);

  if (config_.recovery.enabled) {
    // Node-death detection: the cluster observer is the simulated
    // equivalent of the slurmd connection reset a real master sees the
    // moment a node drops off the fabric.  Registered only when recovery
    // is on, so a disabled world schedules nothing extra.
    cluster_.add_observer(
        [this](NodeId node, cluster::NodeState, cluster::NodeState new_state) {
          if (!nodes_.is_compute(node)) return;
          if (new_state == cluster::NodeState::Down) on_node_down(node);
          else if (new_state == cluster::NodeState::Up) on_node_up(node);
        });
    if (config_.recovery.fault_aware_placement && failure_predictor_) {
      placement_scorer_ = std::make_unique<sched::recovery::FailureAwareScorer>(
          [this](NodeId node) { return failure_predictor_->predicted_failed(node); },
          [this](NodeId node) {
            return static_cast<double>(cluster_.failure_count(node));
          });
    }
  }

  sched_task_ = std::make_unique<sim::PeriodicTask>(engine_, config_.sched_interval,
                                                    [this] { run_sched_cycle(); });
  sched_task_->start(config_.sched_interval);

  if (config_.enable_pings) {
    ping_task_ = std::make_unique<sim::PeriodicTask>(engine_, profile_.ping_interval,
                                                     [this] {
                                                       if (master_up_) ping_all();
                                                     });
    ping_task_->start(profile_.ping_interval);

    if (profile_.node_report_interval > 0) {
      // Status-report waves: every node phones home within a few seconds
      // of the tick.  At large node counts the wave outruns the master's
      // RPC service rate and connections pile up -- the Fig. 7e bursts
      // and the Section II-B overload.
      report_task_ = std::make_unique<sim::PeriodicTask>(
          engine_, profile_.node_report_interval, [this] {
            // A crashed master refuses connections; slurmd-style agents
            // fail fast and try again next interval, so no backlog bomb
            // builds up during an outage.
            if (!master_up_) return;
            for (const NodeId node : deployment_.compute) {
              if (!cluster_.alive(node)) continue;
              const SimTime jitter = static_cast<SimTime>(
                  rng_.next_double() *
                  static_cast<double>(profile_.node_report_jitter));
              engine_.schedule_after(jitter, [this, node] {
                if (!cluster_.alive(node) || !master_up_) return;
                net::Message report;
                report.type = kMsgNodeReport;
                report.bytes = 512;
                net_.send(node, deployment_.master, std::move(report),
                          seconds(30));
              });
            }
          });
      report_task_->start(profile_.node_report_interval);
    }
  }

  if (profile_.socket_crash_threshold > 0 && profile_.crash_base_rate_per_hour > 0) {
    // Overload-driven crash hazard, evaluated every 10 simulated minutes:
    // the crash probability grows quadratically once the master's
    // connection count passes its threshold.
    hazard_task_ = std::make_unique<sim::PeriodicTask>(engine_, minutes(10), [this] {
      if (!master_up_) return;
      // Socket pressure is bursty; judge the *peak* over the last window,
      // which is what actually kills a real master daemon.
      const double peak = std::max<double>(
          net_.socket_series(deployment_.master).max_since(engine_.now() - minutes(10)),
          master_stats_->sockets_now());
      const double overload = peak / profile_.socket_crash_threshold;
      const double p =
          profile_.crash_base_rate_per_hour * overload * overload * (10.0 / 60.0);
      if (rng_.chance(std::min(p, 0.9))) crash_master();
    });
    hazard_task_->start(minutes(10));
  }

  // Reservation audit probes: sample each window at its start and its
  // midpoint, when payloads of excluded jobs must leave the reserved
  // capacity spare.
  const auto* policy = scheduler_.policy();
  if (policy && !policy->reservations().empty()) {
    for (const auto& r : policy->reservations().all()) {
      for (const SimTime at : {r.start, r.start + (r.end - r.start) / 2}) {
        if (at < horizon) engine_.schedule_at(at, [this] { probe_reservations(); });
      }
    }
  }

  // All periodic daemon activity stops at the horizon so a drained event
  // queue means the experiment is over (benches may engine().run()).
  engine_.schedule_at(horizon, [this] {
    if (sched_task_) sched_task_->stop();
    if (ping_task_) ping_task_->stop();
    if (hazard_task_) hazard_task_->stop();
    if (report_task_) report_task_->stop();
  });
}

void ResourceManager::submit(sched::Job job) {
  // Request handling cost on the master.
  master_stats_->charge_cpu_us(200.0);
  if (estimator_) {
    const predict::Estimate est = estimator_->estimate(job);
    job.estimate_used = est.value;
    job.model_estimate = est.model_raw;
  } else {
    job.estimate_used = job.user_estimate > 0 ? job.user_estimate : hours(1);
  }
  const sched::JobId id = pool_.submit(std::move(job));
  // The submission becomes durable when its WAL record commits; the
  // acked-jobs oracle in HaMaster tracks exactly that.
  if (ha_) ha_->log_job_submitted(pool_.get(id));
  master_stats_->set_tracked_jobs(live_jobs());
  if (auto* t = telemetry_)
    t->metrics.counter("rm.jobs_submitted", {{"rm", profile_.name}}).inc();
}

void ResourceManager::run_sched_cycle() {
  if (!master_up_) return;
  if (estimator_) estimator_->maybe_retrain(engine_.now());
  if (auto* t = telemetry_) {
    const auto depth = static_cast<double>(pool_.pending().size());
    t->metrics.counter("sched.cycles").inc();
    t->metrics.gauge("sched.queue_depth", {{"rm", profile_.name}}).set(depth);
    // Counter-track sample: renders as a queue-depth-over-time chart.
    t->tracer.counter_sample("sched.queue_depth:" + profile_.name, depth);
  }
  // Scheduler pass cost scales with queue depth and cluster size.
  const auto& acc = profile_.accounting;
  master_stats_->charge_cpu_us(
      acc.cpu_us_sched_base +
      acc.cpu_us_sched_per_job * static_cast<double>(live_jobs()) +
      acc.cpu_us_sched_per_node * static_cast<double>(deployment_.compute.size()));
  master_stats_->set_tracked_nodes(deployment_.compute.size());
  master_stats_->set_tracked_jobs(live_jobs());
  // afterok dependencies that terminally failed cancel their dependents.
  std::vector<sched::JobId> doomed;
  for (const sched::JobId id : pool_.pending()) {
    bool failed = false;
    sched::dependency_ready(pool_, pool_.get(id), &failed);
    if (failed) doomed.push_back(id);
  }
  for (const sched::JobId id : doomed) {
    pool_.cancel_pending(id, engine_.now());
    accounting_db_.record(pool_.get(id));
  }
  try_start_jobs();
  if (auto* policy = scheduler_.policy()) policy->audit(pool_);
}

void ResourceManager::try_start_jobs() {
  const auto decisions = scheduler_.schedule(pool_, free_nodes(), engine_.now());
  for (const sched::JobId id : decisions) start_job(id);
  apply_preemptions();
}

void ResourceManager::start_job(sched::JobId id) {
  sched::Job& job = pool_.get(id);
  // Allocate nodes the RM *believes* are healthy; a node that died since
  // the last ping round can still be picked here and is only discovered
  // when the launch broadcast times out on it.
  NodeLedger::Penalty penalty;
  if (placement_scorer_) {
    // Failure-aware selection by predicted risk x remaining runtime: a
    // predicted-failing node is the last resort for a long job but still
    // usable for a short one.
    const SimTime planned =
        job.user_estimate > 0 ? std::max(job.user_estimate, job.estimate_used)
                              : job.estimate_used;
    const SimTime remaining =
        std::max<SimTime>(0, planned - job.checkpoint_progress);
    penalty = [this, remaining](NodeId node) {
      return sched::recovery::placement_penalty(placement_scorer_->node_risk(node),
                                                remaining,
                                                config_.recovery.placement_risk_weight);
    };
  }
  if (!nodes_.allocate(id, job.nodes, penalty)) return;
  pool_.mark_starting(id);

  // Launch broadcast ("job loading message").
  dispatch(nodes_.nodes(id), 2048, [this, id](const comm::BroadcastResult& result) {
    launch_bcast_.add(to_seconds(result.elapsed()));
    if (auto* t = telemetry_)
      t->metrics.histogram("rm.launch_broadcast_seconds", {{"rm", profile_.name}})
          .observe(to_seconds(result.elapsed()));
    if (result.unreachable > 0) {
      // One or more allocated nodes were dead: the launch fails, the dead
      // nodes are now known, and the job returns to the queue head.
      ++requeues_;
      if (auto* t = telemetry_)
        t->metrics.counter("rm.launch_requeues", {{"rm", profile_.name}}).inc();
      nodes_.reclaim(id, cluster_.alive_bits());
      pool_.requeue_starting(id);
      if (ha_) ha_->log_job_requeued(id);
      try_start_jobs();
      return;
    }
    if (ha_ && !ha_->begin_launch(id, nodes_.nodes(id))) {
      // The HA launch ledger says this job is already running: a stale
      // control path raced a promotion.  Suppress the second launch.
      return;
    }
    sched::Job& j = pool_.get(id);
    pool_.mark_running(id, engine_.now());
    if (ha_) ha_->log_job_started(id, nodes_.nodes(id));
    if (auto* t = telemetry_) {
      t->metrics.counter("rm.jobs_started", {{"rm", profile_.name}}).inc();
      t->metrics.histogram("sched.wait_seconds", {{"rm", profile_.name}})
          .observe(to_seconds(engine_.now() - j.submit_time));
    }
    // The job runs for its actual runtime, clipped at the enforced wall
    // limit.  The kill limit is never below what the user requested: a
    // model estimate replaces the user's number for *scheduling*, but no
    // production RM terminates a job inside its requested allocation.
    // With recovery on, the attempt resumes from the last durable
    // checkpoint and pays the periodic checkpoint stalls along the way.
    SimTime run_for = j.actual_runtime;
    if (config_.recovery.enabled)
      run_for = sched::recovery::attempt_wall_time(
          std::max<SimTime>(0, j.actual_runtime - j.checkpoint_progress),
          config_.recovery);
    sched::JobState end_state = sched::JobState::Completed;
    const SimTime limit =
        j.user_estimate > 0 ? std::max(j.user_estimate, j.estimate_used)
                            : j.estimate_used;
    if (limit > 0 && run_for > limit) {
      run_for = limit;
      end_state = sched::JobState::TimedOut;
    }
    end_events_[id] = engine_.schedule_after(
        run_for, [this, id, end_state] { job_ended(id, end_state); });
  });
}

void ResourceManager::job_ended(sched::JobId id, sched::JobState end_state) {
  end_events_.erase(id);  // the run timer fired (even if handling defers)
  if (!master_up_) {
    // Completion RPCs cannot reach a crashed master; the nodes stay
    // occupied until it returns (a large part of the production pain).
    deferred_completions_.emplace_back(id, end_state);
    return;
  }
  if (config_.recovery.enabled && config_.recovery.checkpoint_interval > 0 &&
      end_state == sched::JobState::Completed) {
    // The completed attempt spent its planned checkpoint stalls.
    const sched::Job& j = pool_.get(id);
    const SimTime work =
        std::max<SimTime>(0, j.actual_runtime - j.checkpoint_progress);
    recovery_stats_.checkpoint_node_seconds +=
        to_seconds(sched::recovery::attempt_wall_time(work, config_.recovery) -
                   work) *
        j.nodes;
  }
  pool_.mark_finished(id, engine_.now(), end_state);
  if (ha_) ha_->log_job_finished(id, end_state);
  tear_down(id, Teardown::End);
}

bool ResourceManager::disarm_run_timer(sched::JobId id) {
  const auto event = end_events_.find(id);
  if (event == end_events_.end()) return false;
  if (!pool_.contains(id) || pool_.get(id).state != sched::JobState::Running) return false;
  engine_.cancel(event->second);
  end_events_.erase(event);
  return true;
}

void ResourceManager::tear_down(sched::JobId id, Teardown outcome) {
  dispatch(nodes_.nodes(id), 512, [this, id, outcome](const comm::BroadcastResult& result) {
    term_bcast_.add(to_seconds(result.elapsed()));
    if (auto* t = telemetry_)
      t->metrics.histogram("rm.term_broadcast_seconds", {{"rm", profile_.name}})
          .observe(to_seconds(result.elapsed()));
    if (outcome == Teardown::End) {
      if (auto* t = telemetry_)
        t->metrics.counter("rm.jobs_finished", {{"rm", profile_.name}}).inc();
      nodes_.release(id);
    } else {
      // An aborted payload may have lost nodes: reclaim learns which.
      nodes_.reclaim(id, cluster_.alive_bits());
    }
    if (ha_) ha_->launch_complete(id);
    switch (outcome) {
      case Teardown::End:
        retire(id);
        break;
      case Teardown::Requeue:
        // The job reruns from scratch at the queue head.
        pool_.requeue_running(id);
        if (ha_) ha_->log_job_requeued(id);
        break;
      case Teardown::Retry:
      case Teardown::Migrate: {
        sched::Job& job = pool_.get(id);
        SimTime backoff = 0;
        if (outcome == Teardown::Migrate) {
          ++recovery_stats_.proactive_migrations;
        } else {
          ++job.retry_count;
          ++recovery_stats_.retries;
          if (auto* t = telemetry_)
            t->metrics.counter("recovery.retries", {{"rm", profile_.name}}).inc();
          backoff = sched::recovery::retry_backoff(job.retry_count, config_.recovery);
        }
        pool_.requeue_held(id);
        if (ha_) ha_->log_job_node_failed(id, job.retry_count, job.checkpoint_progress);
        if (backoff <= 0) pool_.release_held(id);
        else engine_.schedule_after(backoff, [this, id] { finish_hold(id); });
        break;
      }
      case Teardown::Fail:
        ++recovery_stats_.jobs_failed;
        if (auto* t = telemetry_)
          t->metrics.counter("recovery.jobs_failed", {{"rm", profile_.name}}).inc();
        pool_.mark_finished(id, engine_.now(), sched::JobState::Failed);
        if (ha_) ha_->log_job_finished(id, sched::JobState::Failed);
        retire(id);
        break;
    }
    master_stats_->set_tracked_jobs(live_jobs());
    // Freed resources: give the scheduler an immediate chance.
    try_start_jobs();
  });
}

void ResourceManager::retire(sched::JobId id) {
  if (ha_) ha_->log_job_released(id);
  pool_.mark_released(id, engine_.now());
  const sched::Job& job = pool_.get(id);
  occupation_.add(to_seconds(job.release_time - job.submit_time));
  // Stateful schedulers (fair-share ledgers, account usage) charge the
  // observed consumption on the release path.
  scheduler_.on_job_released(job, engine_.now());
  accounting_db_.record(job);
  if (estimator_) {
    // Feed the record module with the *observed* runtime; a timed-out
    // job reports its (censored) limit, exactly what production sees.
    sched::Job observed = job;
    observed.actual_runtime = job.observed_runtime();
    estimator_->record_completion(observed);
  }
}

void ResourceManager::apply_preemptions() {
  sched::policy::PolicyState* policy = scheduler_.policy();
  if (!policy || !master_up_) return;
  const auto orders = scheduler_.preemption_orders(pool_, free_nodes(), engine_.now());
  for (const auto& order : orders) {
    // Bracket the grace window so later cycles do not re-order the same
    // victim while it winds down.
    policy->note_preemption_pending(order.victim);
    engine_.schedule_after(order.grace, [this, order] {
      finish_preemption(order.victim, order.mode);
    });
  }
}

void ResourceManager::finish_preemption(sched::JobId id,
                                        sched::policy::PreemptMode mode) {
  if (auto* policy = scheduler_.policy()) policy->note_preemption_done(id);
  if (!master_up_) return;  // reprieved: the eviction died with the master
  // Only a job still physically running with its run timer armed can be
  // stopped; anything else completed (possibly deferred) during grace.
  if (!disarm_run_timer(id)) return;

  scheduler_.on_job_preempted(pool_.get(id), engine_.now());
  if (auto* t = telemetry_)
    t->metrics
        .counter("sched.policy.preemptions",
                 {{"mode", sched::policy::preempt_mode_name(mode)},
                  {"rm", profile_.name}})
        .inc();

  if (mode == sched::policy::PreemptMode::Cancel) {
    ++preempt_cancelled_;
    pool_.mark_finished(id, engine_.now(), sched::JobState::Cancelled);
    if (ha_) ha_->log_job_finished(id, sched::JobState::Cancelled);
    tear_down(id, Teardown::End);
    return;
  }
  ++preempt_requeued_;
  tear_down(id, Teardown::Requeue);
}

void ResourceManager::on_node_down(NodeId node) {
  if (!master_up_) return;  // the outage hides the death; pings catch up
  // Instant death notice: keep the health view and the allocatable pool
  // coherent, then kill whatever allocation held the node.
  const auto notice = nodes_.mark_down(node);
  if (ha_ && notice.changed) ha_->log_node_state(node, true);
  if (notice.owner != sched::kNoJob) kill_allocation(notice.owner, /*proactive=*/false);
}

void ResourceManager::on_node_up(NodeId node) {
  if (!master_up_) return;
  // A proactively drained node coming back from its repair is healthy
  // again; return it to service without administrator intervention.
  if (nodes_.proactive_drained(node)) resume_node(node);
}

void ResourceManager::kill_allocation(sched::JobId id, bool proactive) {
  if (!disarm_run_timer(id)) return;

  const auto& opts = config_.recovery;
  sched::Job& job = pool_.get(id);
  const SimTime elapsed = engine_.now() - job.start_time;
  sched::recovery::AttemptOutcome outcome;
  if (proactive && opts.checkpoint_interval > 0) {
    // Clean migration: checkpoint right now, lose nothing but the dump.
    outcome.durable_progress =
        std::min(job.actual_runtime, job.checkpoint_progress + elapsed);
    outcome.checkpoint_overhead = opts.checkpoint_cost;
  } else {
    outcome = sched::recovery::interrupted_attempt(job.checkpoint_progress,
                                                   elapsed, job.actual_runtime, opts);
  }
  job.checkpoint_progress = outcome.durable_progress;
  recovery_stats_.lost_node_seconds +=
      to_seconds(outcome.lost_wall) * job.nodes;
  recovery_stats_.checkpoint_node_seconds +=
      to_seconds(outcome.checkpoint_overhead) * job.nodes;
  if (!proactive) ++recovery_stats_.node_failure_kills;
  if (auto* t = telemetry_) {
    t->metrics
        .counter(proactive ? "recovery.proactive_kills" : "recovery.node_failure_kills",
                 {{"rm", profile_.name}})
        .inc();
    t->metrics.counter("recovery.lost_node_seconds", {{"rm", profile_.name}})
        .inc(to_seconds(outcome.lost_wall) * job.nodes);
  }

  // The retry budget is charged when the teardown completes.
  const bool retry = job.retry_count < opts.max_retries;
  tear_down(id, proactive ? Teardown::Migrate : retry ? Teardown::Retry : Teardown::Fail);
}

void ResourceManager::finish_hold(sched::JobId id) {
  if (!pool_.contains(id)) return;
  const auto& held = pool_.held();
  if (std::find(held.begin(), held.end(), id) == held.end()) return;
  pool_.release_held(id);
  if (master_up_) try_start_jobs();
}

void ResourceManager::note_predicted_failure(NodeId node, SimTime fail_at) {
  if (!config_.recovery.enabled || !config_.recovery.proactive_drain) return;
  if (!master_up_) return;
  if (!nodes_.is_compute(node) || nodes_.drained().test(node)) return;
  ++recovery_stats_.proactive_drains;
  if (auto* t = telemetry_)
    t->metrics.counter("recovery.proactive_drains", {{"rm", profile_.name}}).inc();
  drain_node(node);
  nodes_.flag_proactive_drain(node);
  const sched::JobId owner = nodes_.owner(node);
  if (owner != sched::kNoJob) kill_allocation(owner, /*proactive=*/true);
  // False-alarm backstop: if the predicted failure never lands, un-drain
  // once the alert has cleared (on_node_up covers the real-failure case).
  const SimTime recheck = std::max(fail_at, engine_.now()) + minutes(5);
  if (recheck < horizon_)
    engine_.schedule_at(recheck, [this, node] { recheck_proactive_drain(node); });
}

void ResourceManager::recheck_proactive_drain(NodeId node) {
  if (!nodes_.proactive_drained(node)) return;
  if (!cluster_.alive(node)) return;  // failure landed; repair un-drains
  if (failure_predictor_ && failure_predictor_->predicted_failed(node)) {
    // Still alarmed: look again later.
    const SimTime next = engine_.now() + minutes(5);
    if (next < horizon_)
      engine_.schedule_at(next, [this, node] { recheck_proactive_drain(node); });
    return;
  }
  resume_node(node);  // clears the proactive flag too
}

void ResourceManager::probe_reservations() {
  const auto* policy = scheduler_.policy();
  if (!policy) return;
  const SimTime now = engine_.now();
  for (const auto& r : policy->reservations().all()) {
    if (!r.active_at(now)) continue;
    // Capacity held by *payloads* (Starting/Running) the window excludes;
    // Completing jobs are already being torn down by their termination
    // broadcast and no longer run anything.
    int excluded = 0;
    for (const sched::JobId id : pool_.active()) {
      const sched::Job& job = pool_.get(id);
      if (job.finished()) continue;
      if (!r.allows(job)) excluded += job.nodes;
    }
    if (excluded > total_compute_nodes() - r.nodes) {
      ++reservation_intrusions_;
      if (auto* t = telemetry_)
        t->metrics
            .counter("sched.policy.reservation_intrusions", {{"window", r.name}})
            .inc();
    }
  }
}

void ResourceManager::drain_node(NodeId node) {
  master_stats_->charge_cpu_us(100.0);
  nodes_.drain(node);
}

void ResourceManager::resume_node(NodeId node) {
  master_stats_->charge_cpu_us(100.0);
  nodes_.resume(node);  // sidelined capacity is allocatable at once
  try_start_jobs();  // capacity may have returned
}

void ResourceManager::refresh_health_view() {
  // The WAL records only the *transitions*, so steady state costs nothing.
  const auto log = [this](NodeId node, bool now_down) { ha_->log_node_state(node, now_down); };
  nodes_.refresh(cluster_.alive_bits(), ha_ ? NodeLedger::Transition(log) : nullptr);
}

void ResourceManager::ping_all() {
  dispatch(deployment_.compute, 128, [this](const comm::BroadcastResult&) {
    refresh_health_view();
  });
}

void ResourceManager::crash_master() {
  master_up_ = false;
  ++crashes_;
  crashed_at_ = engine_.now();
  if (auto* t = telemetry_) {
    t->metrics.counter("rm.master_crashes", {{"rm", profile_.name}}).inc();
    t->tracer.instant("master-crash", "rm");
  }
  begin_outage();
}

void ResourceManager::begin_outage() {
  engine_.schedule_after(profile_.reboot_time, [this] {
    recover_master();
    replay_deferred_completions();
  });
}

void ResourceManager::recover_master() {
  master_up_ = true;
  downtime_ += engine_.now() - crashed_at_;
  if (auto* t = telemetry_)
    t->tracer.complete("master-outage", "rm", crashed_at_, engine_.now() - crashed_at_);
}

void ResourceManager::replay_deferred_completions() {
  auto deferred = std::move(deferred_completions_);
  deferred_completions_.clear();
  for (const auto& [id, end_state] : deferred) job_ended(id, end_state);
}

ha::StateImage ResourceManager::build_state_image() const {
  ha::StateImage image;
  image.taken_at = engine_.now();
  const auto put = [&](sched::JobId id) {
    ha::ImageJob entry;
    entry.job = pool_.get(id);
    entry.alloc = nodes_.nodes(id);
    image.jobs.emplace(id, std::move(entry));
  };
  for (const sched::JobId id : pool_.pending()) put(id);
  for (const sched::JobId id : pool_.active()) put(id);
  // Held jobs (node-death backoff) are Pending in durable terms; the
  // promoted master resurrects them as immediately-runnable.
  for (const sched::JobId id : pool_.held()) put(id);
  // Released jobs live in the accounting blob, not the live image.
  nodes_.believed_down().for_each_set([&](NodeId node) { image.down.insert(node); });
  std::ostringstream acct;
  accounting_db_.save(acct);
  image.accounting = acct.str();
  return image;
}

void ResourceManager::reconcile_with_image(const ha::StateImage& image) {
  struct {
    std::size_t resurrected = 0;  ///< in image, unknown to the pool
    std::size_t dropped = 0;      ///< in the pool, never committed
    std::size_t requeued = 0;     ///< launch died with the old master
    std::size_t reissued = 0;     ///< termination re-broadcast
  } stats;
  const SimTime now = engine_.now();

  // Jobs the durable state knows but the pool does not: a committed
  // submission whose ack raced the crash.  Resurrect as pending.
  for (const auto& [id, entry] : image.jobs) {
    if (pool_.contains(id) || entry.job.finished()) continue;
    sched::Job job = entry.job;
    job.state = sched::JobState::Pending;
    job.start_time = -1;
    job.end_time = -1;
    job.release_time = -1;
    pool_.submit(std::move(job));
    if (ha_) ha_->log_job_submitted(pool_.get(id));
    ++stats.resurrected;
  }

  // Uncommitted submissions: the standby never heard of them, and the
  // client never got a durable ack.  The new master drops them.
  const std::deque<sched::JobId> pending(pool_.pending());
  for (const sched::JobId id : pending) {
    if (image.jobs.count(id)) continue;
    pool_.cancel_pending(id, now);
    accounting_db_.record(pool_.get(id));
    ++stats.dropped;
  }

  const std::vector<sched::JobId> active(pool_.active());
  for (const sched::JobId id : active) {
    sched::Job& job = pool_.get(id);
    switch (job.state) {
      case sched::JobState::Starting: {
        // The launch broadcast died with the old master before the
        // commit RPC, so no compute node started the payload: reclaim
        // the allocation and requeue.
        nodes_.reclaim(id, cluster_.alive_bits());
        pool_.requeue_starting(id);
        if (image.jobs.count(id)) {
          if (ha_) ha_->log_job_requeued(id);
          ++stats.requeued;
        } else {
          pool_.cancel_pending(id, now);  // uncommitted AND half-launched
          accounting_db_.record(pool_.get(id));
          ++stats.dropped;
        }
        break;
      }
      case sched::JobState::Running:
        break;  // physically running; adopted unchanged, run timer armed
      default:
        // Terminal but unreleased: the termination broadcast was in
        // flight when the master died.  Re-issue it.
        if (job.release_time < 0) {
          tear_down(id, Teardown::End);
          ++stats.reissued;
        }
        break;
    }
  }
  if (auto* t = telemetry_) {
    t->metrics.counter("ha.promotion.resurrected")
        .inc(static_cast<double>(stats.resurrected));
    t->metrics.counter("ha.promotion.dropped_uncommitted")
        .inc(static_cast<double>(stats.dropped));
    t->metrics.counter("ha.promotion.requeued")
        .inc(static_cast<double>(stats.requeued));
    t->metrics.counter("ha.promotion.reissued_terminations")
        .inc(static_cast<double>(stats.reissued));
  }
}

sched::SchedulingReport ResourceManager::report(SimTime t0, SimTime t1) const {
  return sched::compute_report(pool_, total_compute_nodes(), t0, t1);
}

}  // namespace eslurm::rm
