#include "rm/eslurm_rm.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "rm/ha_master.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace eslurm::rm {
namespace {

struct TaskBody {
  std::uint64_t dispatch_id;
  std::uint32_t subtask;
  std::uint32_t satellite;  ///< index of the receiving satellite
};
struct ResultBody {
  std::uint64_t dispatch_id;
  std::uint32_t subtask;
  comm::BroadcastResult result;
};

}  // namespace

AccountingModel satellite_accounting() {
  AccountingModel m;
  m.cpu_us_per_message = 60.0;
  m.cpu_us_sched_base = 0.0;  // satellites do not schedule
  m.cpu_us_sched_per_job = 0.0;
  m.cpu_us_sched_per_node = 0.0;
  m.rss_base_mb = 130.0;
  m.rss_kb_per_node = 25.0;   // relay buffers per node of the active task
  m.rss_kb_per_job = 0.0;
  m.rss_kb_per_socket = 14.0;
  m.vmem_base_gb = 10.0;      // slurmd-derived daemon image (Table VI)
  m.vmem_per_rss = 1.5;
  return m;
}

std::size_t EslurmRm::satellites_for(std::size_t s, int w, std::size_t m) {
  if (m == 0) return 0;
  const auto width = static_cast<std::size_t>(std::max(1, w));
  if (s <= width) return 1;
  if (s >= m * width) return m;
  return (s + width - 1) / width;  // ceil(s / w)
}

EslurmRm::EslurmRm(sim::Engine& engine, net::Network& network,
                   cluster::ClusterModel& cluster, RmCostProfile profile,
                   RmDeployment deployment, RmRuntimeConfig config,
                   const cluster::FailurePredictor* predictor)
    : ResourceManager(engine, network, cluster, std::move(profile),
                      std::move(deployment), config),
      predictor_(predictor) {
  if (config_.use_reliable_transport) {
    // Own seed stream: the transport draws rng only on retransmit
    // backoffs, so loss-free runs stay bit-identical to raw sends.
    transport_ = std::make_unique<net::ReliableTransport>(
        net_, Rng(derive_seed(config_.seed, 0x7A7)), net::TransportOptions{}, "rm");
  }
  if (config_.use_fp_tree) {
    auto fp = std::make_unique<comm::FpTreeBroadcaster>(
        net_, predictor_ ? *predictor_ : static_cast<const cluster::FailurePredictor&>(
                                             null_predictor_),
        "eslurm-fp-tree", transport_.get());
    // Ground-truth instrumentation for the Section VII-A placement
    // metric: count genuinely-down nodes encountered during construction.
    fp->set_ground_truth([this](NodeId node) { return !cluster_.alive(node); });
    relay_ = std::move(fp);
  } else {
    relay_ = std::make_unique<comm::TreeBroadcaster>(net_, "eslurm-tree",
                                                     transport_.get());
  }

  satellites_.resize(deployment_.satellites.size());
  for (std::size_t i = 0; i < satellites_.size(); ++i) {
    Satellite& sat = satellites_[i];
    sat.node = deployment_.satellites[i];
    sat.state = SatelliteState::Running;  // brought up with the RM
    sat.stats = std::make_unique<DaemonStats>(engine_, net_, sat.node,
                                              satellite_accounting());
  }
  // Tasks, heartbeats and re-registrations go to satellites, results to
  // whichever node is the master; a task names its satellite's index.
  net_.register_handler(kMsgSatelliteTask,
                        [this](NodeId, const net::Message& m) { on_satellite_task(m); });
  // Heartbeats need no application handler (the network-level ack is
  // the liveness signal), but registering one makes a chaos-duplicated
  // reliable ping show up as a suppressed duplicate instead of a drop.
  net_.register_handler(kMsgSatelliteHeartbeat, [](NodeId, const net::Message&) {});
  net_.register_handler(kMsgSatelliteResult,
                        [this](NodeId, const net::Message& m) { on_satellite_result(m); });

  if (config_.ha.enabled && !satellites_.empty()) {
    // The first satellite doubles as the standby master; it keeps its
    // relay role until (if ever) it is promoted.
    ha_ = std::make_unique<HaMaster>(engine_, net_, config_.ha,
                                     Rng(derive_seed(config_.seed, 0x4A17)));
    ha_->set_capture([this] { return build_state_image(); });
    ha_->set_on_master_dead([this] { begin_promotion(); });
    ha_->set_endpoints(deployment_.master, satellites_.front().node);
    // Re-registration needs no application logic; the transport-level
    // ack is the confirmation the new master aggregates.
    net_.register_handler(kMsgSatelliteReregister, [](NodeId, const net::Message&) {});
  }
}

EslurmRm::~EslurmRm() {
  for (const net::MessageType type : {kMsgSatelliteTask, kMsgSatelliteHeartbeat,
                                      kMsgSatelliteResult, kMsgSatelliteReregister})
    net_.unregister_handler(type);
}

void EslurmRm::start(SimTime horizon) {
  ResourceManager::start(horizon);
  for (auto& sat : satellites_)
    sat.stats->start_sampling(config_.sample_interval, horizon);
  if (!satellites_.empty()) {
    satellite_hb_ = std::make_unique<sim::PeriodicTask>(
        engine_, minutes(1), [this] { heartbeat_satellites(); });
    satellite_hb_->start(minutes(1));
    engine_.schedule_at(horizon, [this] { satellite_hb_->stop(); });
  }
  if (ha_) ha_->start(horizon);
}

void EslurmRm::apply_event(std::size_t sat_index, SatelliteEvent event) {
  Satellite& sat = satellites_[sat_index];
  const SatelliteState old_state = sat.state;
  sat.state = satellite_transition(sat.state, event);
  if (sat.state == SatelliteState::Fault && old_state != SatelliteState::Fault)
    sat.fault_since = engine_.now();
  if (sat.state != old_state) {
    if (auto* t = telemetry_) {
      // One counter per edge of the Table II FSM, so a run's churn is
      // directly readable (e.g. rm.sat_transitions{from=RUNNING,to=FAULT}).
      t->metrics
          .counter("rm.sat_transitions", {{"from", satellite_state_name(old_state)},
                                          {"to", satellite_state_name(sat.state)}})
          .inc();
      t->tracer.instant(std::string("sat:") + satellite_state_name(old_state) +
                            "->" + satellite_state_name(sat.state),
                        "rm", {{"node", static_cast<double>(sat.node)}});
    }
  }
}

std::size_t EslurmRm::pick_satellite() {
  // Round-robin over serviceable satellites (Section III-B).  BUSY
  // satellites stay eligible: they are processing tasks, not failed.
  for (std::size_t step = 0; step < satellites_.size(); ++step) {
    const std::size_t i = (rr_next_ + step) % satellites_.size();
    if (serviceable(satellites_[i].state)) {
      rr_next_ = (i + 1) % satellites_.size();
      return i;
    }
  }
  return SIZE_MAX;
}

SimTime EslurmRm::subtask_watchdog_delay(std::size_t list_size) const {
  const int depth =
      comm::tree_depth_estimate(list_size + 1, config_.bcast.tree_width);
  // With the reliable transport every tree contact may run a full
  // retransmit schedule before failing, so the watchdog budgets that
  // per-contact worst case instead of one raw timeout.
  const SimTime contact = net::contact_budget(net_, transport_.get(), config_.bcast.timeout);
  return contact * (config_.bcast.retries + 1) * (depth + 3);
}

void EslurmRm::dispatch(std::vector<NodeId> targets, std::size_t bytes,
                        comm::Broadcaster::Callback done) {
  auto state = std::make_shared<DispatchState>();
  state->id = next_dispatch_id_++;
  state->started = engine_.now();
  state->done = std::move(done);
  state->aggregate.broadcast_id = state->id;
  state->aggregate.started = state->started;
  state->aggregate.targets = targets.size();

  // Eq. 1: split the participation list into N contiguous sublists.
  std::size_t running = 0;
  for (const auto& sat : satellites_)
    if (serviceable(sat.state)) ++running;
  const std::size_t n = std::max<std::size_t>(
      1, satellites_for(targets.size(), config_.bcast.tree_width,
                        std::max<std::size_t>(running, satellites_.empty() ? 0 : 1)));

  const std::size_t total = targets.size();
  const std::size_t base = total / n;
  const std::size_t rem = total % n;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t take = base + (i < rem ? 1 : 0);
    Subtask subtask;
    subtask.list = std::make_shared<const std::vector<NodeId>>(
        targets.begin() + static_cast<std::ptrdiff_t>(cursor),
        targets.begin() + static_cast<std::ptrdiff_t>(cursor + take));
    subtask.bytes = bytes;
    cursor += take;
    state->subtasks.push_back(std::move(subtask));
  }
  state->pending = state->subtasks.size();
  dispatches_.emplace(state->id, state);
  if (auto* t = telemetry_) {
    t->metrics.counter("rm.dispatches").inc();
    t->metrics
        .histogram("rm.subtasks_per_dispatch",
                   {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128})
        .observe(static_cast<double>(state->subtasks.size()));
  }

  for (std::size_t i = 0; i < state->subtasks.size(); ++i)
    assign_subtask(state->id, i);
}

void EslurmRm::assign_subtask(std::uint64_t dispatch_id, std::size_t subtask_index) {
  const auto it = dispatches_.find(dispatch_id);
  if (it == dispatches_.end()) return;
  DispatchState& state = *it->second;
  Subtask& subtask = state.subtasks[subtask_index];
  if (subtask.done) return;

  const std::size_t sat_index = pick_satellite();
  if (sat_index == SIZE_MAX || subtask.reallocations > 2) {
    // No serviceable satellite, or the task bounced too often: the
    // master takes over to guarantee completion (Section III-C).
    master_takeover(dispatch_id, subtask_index);
    return;
  }
  subtask.assigned = sat_index;
  Satellite& sat = satellites_[sat_index];

  // The master serializes subtask preparation (list slicing, book-
  // keeping); with many satellites this is the term that grows.
  const SimTime prep_start = std::max(engine_.now(), master_busy_until_);
  master_busy_until_ = prep_start + config_.master_subtask_service;
  master_stats_->charge_cpu_us(
      static_cast<double>(config_.master_subtask_service) / 1000.0);

  // The event captures ids and the byte count, not a Message, and the
  // two indices as 32 bits, so it stays within the engine's inline
  // capture budget.
  auto send = [this, sat_node = sat.node, bytes = 256 + 8 * subtask.list->size(), dispatch_id,
               index = static_cast<std::uint32_t>(subtask_index),
               satellite = static_cast<std::uint32_t>(sat_index)] {
    send_task(sat_node, bytes, dispatch_id, index, satellite);
  };
  static_assert(sim::EventFn::stores_inline_v<decltype(send)>);
  engine_.schedule_at(master_busy_until_, std::move(send));
}

void EslurmRm::send_task(NodeId sat_node, std::size_t bytes, std::uint64_t dispatch_id,
                         std::size_t subtask_index, std::size_t sat_index) {
  net::Message msg;
  msg.type = kMsgSatelliteTask;
  msg.bytes = bytes;
  msg.payload = TaskBody{dispatch_id, static_cast<std::uint32_t>(subtask_index),
                         static_cast<std::uint32_t>(sat_index)};
  net::send(net_, transport_.get(), deployment_.master, sat_node, std::move(msg),
            config_.bcast.timeout,
            [this, dispatch_id, subtask_index, sat_index](bool ok) {
              if (!ok) {
                // The satellite did not accept the task.
                subtask_failed(dispatch_id, subtask_index, sat_index);
                return;
              }
              const auto it = dispatches_.find(dispatch_id);
              if (it == dispatches_.end()) return;
              Subtask& st = it->second->subtasks[subtask_index];
              if (st.done) return;
              // Accepted; watch for a missing completion report (the
              // satellite may die mid-broadcast).
              st.watchdog = engine_.schedule_after(
                  subtask_watchdog_delay(st.list->size()),
                  [this, dispatch_id, subtask_index, sat_index] {
                    subtask_failed(dispatch_id, subtask_index, sat_index);
                  });
            });
}

void EslurmRm::subtask_failed(std::uint64_t dispatch_id, std::size_t subtask_index,
                              std::size_t sat_index) {
  const auto it = dispatches_.find(dispatch_id);
  if (it == dispatches_.end()) return;
  Subtask& subtask = it->second->subtasks[subtask_index];
  if (subtask.done) return;
  apply_event(sat_index, SatelliteEvent::BtFailure);
  ++subtask.reallocations;
  ++reallocations_;
  if (auto* t = telemetry_) t->metrics.counter("rm.subtask_reallocations").inc();
  assign_subtask(dispatch_id, subtask_index);
}

void EslurmRm::on_satellite_task(const net::Message& msg) {
  const auto& body = msg.body<TaskBody>();
  const std::size_t sat_index = body.satellite;
  const auto it = dispatches_.find(body.dispatch_id);
  if (it == dispatches_.end()) return;
  DispatchState& state = *it->second;
  const Subtask& subtask = state.subtasks[body.subtask];

  Satellite& sat = satellites_[sat_index];
  apply_event(sat_index, SatelliteEvent::BtStart);
  ++sat.active_tasks;
  ++sat.tasks_received;
  sat.nodes_per_task.add(static_cast<double>(subtask.list->size()));
  sat.stats->set_tracked_nodes(subtask.list->size());
  // Relay work scales with the list: parsing, FP-Tree construction and
  // per-child buffer management cost ~30 us per listed node.
  sat.stats->charge_cpu_us(50.0 + 30.0 * static_cast<double>(subtask.list->size()));

  const std::uint64_t dispatch_id = body.dispatch_id;
  const std::uint32_t subtask_index = body.subtask;
  const NodeId sat_node = sat.node;
  // The satellite processes its list (deserialize + FP-Tree construction)
  // before relaying; fewer satellites means bigger lists and a longer
  // serial stretch here -- the term that penalizes small pools.
  const SimTime processing = from_seconds(
      config_.satellite_per_node_us * 1e-6 * static_cast<double>(subtask.list->size()));
  engine_.schedule_after(processing, [this, dispatch_id, subtask_index, sat_index,
                                      sat_node] {
    const auto it2 = dispatches_.find(dispatch_id);
    if (it2 == dispatches_.end()) return;
    start_relay(dispatch_id, subtask_index, sat_index, sat_node);
  });
}

void EslurmRm::start_relay(std::uint64_t dispatch_id, std::uint32_t subtask_index,
                           std::size_t sat_index, NodeId sat_node) {
  const auto it = dispatches_.find(dispatch_id);
  if (it == dispatches_.end()) return;
  const Subtask& subtask = it->second->subtasks[subtask_index];
  comm::BroadcastOptions opts = config_.bcast;
  opts.payload_bytes = subtask.bytes;
  relay_->broadcast(
      sat_node, subtask.list, opts,
      [this, dispatch_id, subtask_index, sat_index, sat_node](
          const comm::BroadcastResult& result) {
        Satellite& s = satellites_[sat_index];
        if (s.active_tasks > 0) --s.active_tasks;
        // Report completion to the master (fire-and-forget; the master's
        // watchdog covers a lost report).
        net::Message reply;
        reply.type = kMsgSatelliteResult;
        reply.bytes = 128;
        reply.payload = ResultBody{dispatch_id, subtask_index, result};
        net::send(net_, transport_.get(), sat_node, deployment_.master, std::move(reply),
                  config_.bcast.timeout);
      });
}

void EslurmRm::on_satellite_result(const net::Message& msg) {
  const auto& body = msg.body<ResultBody>();
  const auto it = dispatches_.find(body.dispatch_id);
  if (it == dispatches_.end()) return;
  DispatchState& state = *it->second;
  Subtask& subtask = state.subtasks[body.subtask];
  if (subtask.done) return;
  // BT-success returns the satellite to RUNNING once it has drained its
  // task queue; with tasks still active it simply stays BUSY.
  if (subtask.assigned < satellites_.size() &&
      satellites_[subtask.assigned].active_tasks == 0) {
    apply_event(subtask.assigned, SatelliteEvent::BtSuccess);
  }
  subtask_finished(body.dispatch_id, body.subtask, body.result);
}

void EslurmRm::master_takeover(std::uint64_t dispatch_id, std::size_t subtask_index) {
  const auto it = dispatches_.find(dispatch_id);
  if (it == dispatches_.end()) return;
  Subtask& subtask = it->second->subtasks[subtask_index];
  ++takeovers_;
  if (auto* t = telemetry_) {
    t->metrics.counter("rm.master_takeovers").inc();
    t->tracer.instant("master-takeover", "rm",
                      {{"nodes", static_cast<double>(subtask.list->size())}});
  }
  comm::BroadcastOptions opts = config_.bcast;
  opts.payload_bytes = subtask.bytes;
  relay_->broadcast(deployment_.master, subtask.list, opts,
                    [this, dispatch_id, subtask_index](
                        const comm::BroadcastResult& result) {
                      subtask_finished(dispatch_id, subtask_index, result);
                    });
}

void EslurmRm::subtask_finished(std::uint64_t dispatch_id, std::size_t subtask_index,
                                const comm::BroadcastResult& result) {
  const auto it = dispatches_.find(dispatch_id);
  if (it == dispatches_.end()) return;
  DispatchState& state = *it->second;
  Subtask& subtask = state.subtasks[subtask_index];
  if (subtask.done) return;
  subtask.done = true;
  if (subtask.watchdog != sim::kInvalidEvent) {
    engine_.cancel(subtask.watchdog);
    subtask.watchdog = sim::kInvalidEvent;
  }
  state.aggregate.delivered += result.delivered;
  state.aggregate.unreachable += result.unreachable;
  state.aggregate.repairs += result.repairs;
  if (--state.pending == 0) {
    state.aggregate.finished = engine_.now();
    state.aggregate.delivered =
        std::min(state.aggregate.delivered, state.aggregate.targets);
    const auto done = std::move(state.done);
    const auto aggregate = state.aggregate;
    const std::size_t subtasks = state.subtasks.size();
    dispatches_.erase(dispatch_id);
    if (auto* t = telemetry_) {
      // The whole fan-out/aggregate round as one span: master split ->
      // satellite relays -> completion reports (Eq. 1 path).
      t->tracer.complete(
          "eslurm.dispatch", "rm", aggregate.started, aggregate.elapsed(),
          {{"targets", static_cast<double>(aggregate.targets)},
           {"delivered", static_cast<double>(aggregate.delivered)},
           {"subtasks", static_cast<double>(subtasks)}});
      t->metrics.histogram("rm.dispatch_seconds")
          .observe(to_seconds(aggregate.elapsed()));
    }
    if (done) done(aggregate);
  }
}

void EslurmRm::heartbeat_satellites() {
  // A dead master heartbeats nobody (HA keeps the node itself down
  // until reboot; the base model only stops *scheduling*).
  if (ha_ && !master_up_) return;
  for (std::size_t i = 0; i < satellites_.size(); ++i) {
    Satellite& sat = satellites_[i];
    if (sat.state == SatelliteState::Down) continue;
    // FAULT dwell check (Table II: >= 20 min in FAULT -> DOWN).
    if (sat.state == SatelliteState::Fault &&
        engine_.now() - sat.fault_since >= kSatelliteFaultTimeout) {
      apply_event(i, SatelliteEvent::Timeout);
      continue;
    }
    net::Message ping;
    ping.type = kMsgSatelliteHeartbeat;
    ping.bytes = 64;
    if (auto* t = telemetry_)
      t->metrics.counter("rm.heartbeats_sent").inc();
    net::send(net_, transport_.get(), deployment_.master, sat.node, std::move(ping),
              config_.bcast.timeout,
              [this, i](bool ok) {
                  if (auto* t = telemetry_)
                    t->metrics
                        .counter("rm.heartbeat_results",
                                 {{"result", ok ? "ok" : "fail"}})
                        .inc();
                  apply_event(i, ok ? SatelliteEvent::HbSuccess
                                    : SatelliteEvent::HbFailure);
                });
  }
}

void EslurmRm::begin_outage() {
  if (!ha_) {
    ResourceManager::begin_outage();
    return;
  }
  // The master's in-memory dispatch bookkeeping dies with it.  In-flight
  // launch/termination broadcasts abort: the launch protocol ends with a
  // commit RPC from the master, and a dead master never commits, so the
  // compute nodes abandon the half-delivered payload.
  for (auto& entry : dispatches_) {
    for (auto& subtask : entry.second->subtasks) {
      if (subtask.watchdog != sim::kInvalidEvent) {
        engine_.cancel(subtask.watchdog);
        subtask.watchdog = sim::kInvalidEvent;
      }
    }
  }
  dispatches_.clear();
  master_busy_until_ = 0;
  const NodeId old_master = deployment_.master;
  // The node itself goes dark: probes, reports and result messages to it
  // now fail, which is what the standby's detector keys on.
  cluster_.fail(old_master);
  ha_->on_master_crashed();
  engine_.schedule_after(profile_.reboot_time,
                         [this, old_master] { master_rejoined(old_master); });
}

void EslurmRm::begin_promotion() {
  if (master_up_) {
    // Fencing: the detector can be fooled by a partition.  The master is
    // alive, so the standby stands down and resumes watching.
    ha_->note_false_alarm();
    return;
  }
  if (!cluster_.alive(ha_->standby())) {
    // The standby died too (double fault): nobody can promote; the
    // cluster waits for the original master's reboot.
    ESLURM_WARN(profile_.name, ": master dead but standby ", ha_->standby(),
                " is down too; waiting for reboot");
    return;
  }
  std::size_t replay_records = 0;
  ha::StateImage image = ha_->recovered_image(&replay_records);
  const SimTime detection = engine_.now() - crashed_at_;
  const SimTime cost = ha_->replay_cost(replay_records);
  if (auto* t = telemetry_)
    t->tracer.instant("ha-promotion-begin", "rm",
                      {{"replay_records", static_cast<double>(replay_records)}});
  engine_.schedule_after(
      cost, [this, image = std::move(image), detection, replay_records]() mutable {
        finish_promotion(std::move(image), detection, replay_records);
      });
}

void EslurmRm::finish_promotion(ha::StateImage image, SimTime detection,
                                std::size_t replay_records) {
  if (master_up_) {
    // The old master recovered during replay (only possible with a
    // near-zero reboot time); the promotion is abandoned.
    ha_->note_false_alarm();
    return;
  }
  const NodeId new_master = ha_->standby();
  // The promoted node leaves the relay pool for good; Table II has no
  // edge for "became the master", so the state is set directly.
  for (auto& sat : satellites_)
    if (sat.node == new_master) sat.state = SatelliteState::Down;
  deployment_.master = new_master;
  net_.set_recv_processing(
      new_master,
      from_seconds(profile_.accounting.cpu_us_per_message * 1e-6));
  // Fresh daemon on the new node; the old node's stats stay frozen as a
  // record of its tenure.
  master_stats_ = std::make_unique<DaemonStats>(engine_, net_, new_master,
                                                profile_.accounting);
  if (profile_.persistent_node_connections)
    master_stats_->set_persistent_sockets(
        static_cast<int>(deployment_.compute.size()));
  if (engine_.now() < horizon_)
    master_stats_->start_sampling(config_.sample_interval, horizon_);

  reconcile_with_image(image);
  ha_->finish_takeover(new_master, detection, engine_.now() - crashed_at_,
                       replay_records);
  recover_master();

  // Surviving satellites re-home their control channel to the new
  // master; the ack doubles as a liveness probe feeding the FSM.
  for (std::size_t i = 0; i < satellites_.size(); ++i) {
    if (satellites_[i].state == SatelliteState::Down) continue;
    net::Message msg;
    msg.type = kMsgSatelliteReregister;
    msg.bytes = 128;
    net::send(net_, transport_.get(), new_master, satellites_[i].node, std::move(msg),
              config_.bcast.timeout, [this, i](bool ok) {
                if (ok) ++reregistered_;
                if (auto* t = telemetry_)
                  t->metrics
                      .counter("ha.failover.reregistrations",
                               {{"result", ok ? "ok" : "fail"}})
                      .inc();
                apply_event(i, ok ? SatelliteEvent::HbSuccess
                                  : SatelliteEvent::HbFailure);
              });
  }

  // Completions that reached no master, now that the satellites re-homed.
  replay_deferred_completions();
  try_start_jobs();
}

void EslurmRm::master_rejoined(NodeId old_master) {
  cluster_.restore(old_master);
  if (master_up_) {
    // Role swap: the rebooted node comes back as the new standby.
    if (auto* t = telemetry_)
      t->metrics.counter("ha.failover.standby_adopted").inc();
    ha_->adopt_standby(old_master);
  } else {
    // No promotion happened (standby was dead too): plain reboot
    // recovery on the original node.
    recover_master();
    replay_deferred_completions();
    ha_->resume_as_master(old_master);
  }
}

std::vector<EslurmRm::SatelliteReport> EslurmRm::satellite_reports() const {
  std::vector<SatelliteReport> out;
  out.reserve(satellites_.size());
  for (const auto& sat : satellites_) {
    SatelliteReport report;
    report.node = sat.node;
    report.state = sat.state;
    report.tasks_received = sat.tasks_received;
    report.avg_nodes_per_task = sat.nodes_per_task.mean();
    report.rss_mb = sat.stats->rss_mb();
    report.vmem_gb = sat.stats->vmem_gb();
    report.cpu_minutes = sat.stats->cpu_seconds() / 60.0;
    report.avg_sockets = sat.stats->socket_series().mean_value();
    report.sockets_now = sat.stats->sockets_now();
    out.push_back(report);
  }
  return out;
}

const comm::RearrangeStats* EslurmRm::fp_tree_stats() const {
  const auto* fp = dynamic_cast<const comm::FpTreeBroadcaster*>(relay_.get());
  return fp ? &fp->cumulative_stats() : nullptr;
}

std::uint64_t EslurmRm::fp_trees_constructed() const {
  const auto* fp = dynamic_cast<const comm::FpTreeBroadcaster*>(relay_.get());
  return fp ? fp->trees_constructed() : 0;
}

}  // namespace eslurm::rm
