#include "cluster/monitoring.hpp"

namespace eslurm::cluster {

StaticFailurePredictor::StaticFailurePredictor(std::vector<NodeId> nodes)
    : set_(nodes.begin(), nodes.end()) {}

void StaticFailurePredictor::set_predicted(NodeId node, bool predicted) {
  if (predicted)
    set_.insert(node);
  else
    set_.erase(node);
}

MonitoringSystem::MonitoringSystem(ClusterModel& cluster, FailureModel& failures,
                                   Rng rng, MonitoringParams params)
    : cluster_(cluster), rng_(rng), params_(params) {
  predicted_.resize(cluster.size());
  // Genuine alerts: the failure model tells us a node will fail at
  // `fail_at`; with probability hit_rate the BMU notices the degradation
  // and the alert climbs the BMU -> CMU -> SMU chain.
  failures.add_pre_failure_hook([this](NodeId node, SimTime fail_at) {
    if (!rng_.chance(params_.hit_rate)) return;
    const SimTime smu_at = cluster_.engine().now() + params_.bmu_to_cmu_delay +
                           params_.cmu_to_smu_delay;
    // The alert is held until well past the failure; once the node is
    // actually down it is excluded from node lists anyway, and it clears
    // on restore.
    const SimTime expires = fail_at + hours(24);
    cluster_.engine().schedule_at(smu_at, [this, node, expires] {
      raise_alert(node, /*genuine=*/true, expires);
    });
  });
  // Restores clear any outstanding alert for the node.
  cluster_.add_observer([this](NodeId node, NodeState, NodeState now_state) {
    if (now_state == NodeState::Up) clear_alert(node);
  });
}

void MonitoringSystem::start(SimTime horizon) { arm_false_alarm(horizon); }

void MonitoringSystem::arm_false_alarm(SimTime horizon) {
  const double rate_per_hour = params_.false_alarms_per_node_day *
                               static_cast<double>(cluster_.size()) / 24.0;
  if (rate_per_hour <= 0.0) return;
  const SimTime at =
      cluster_.engine().now() + from_seconds(rng_.exponential(1.0 / rate_per_hour) * 3600.0);
  if (at > horizon) return;
  cluster_.engine().schedule_at(at, [this, horizon] {
    const auto victim = static_cast<NodeId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cluster_.size()) - 1));
    if (cluster_.alive(victim)) {
      const SimTime expires =
          cluster_.engine().now() + from_seconds(params_.false_alarm_hold_hours * 3600.0);
      raise_alert(victim, /*genuine=*/false, expires);
    }
    arm_false_alarm(horizon);
  });
}

void MonitoringSystem::raise_alert(NodeId node, bool genuine, SimTime expires_at) {
  ++raised_;
  if (genuine)
    ++genuine_;
  else
    ++false_;
  predicted_.set(node);
  // The alert's indicator family (one of eight) is drawn but not kept:
  // nothing reads it, and the draw keeps the monitoring rng stream.
  (void)rng_.uniform_int(0, 7);
  const std::uint64_t token = next_token_++;
  active_[node] = token;
  if (expires_at != kTimeNever) {
    cluster_.engine().schedule_at(expires_at, [this, node, token] {
      expire_alert(node, token);
    });
  }
}

void MonitoringSystem::expire_alert(NodeId node, std::uint64_t token) {
  const auto it = active_.find(node);
  if (it != active_.end() && it->second == token) {
    active_.erase(it);
    predicted_.reset(node);
  }
}

void MonitoringSystem::clear_alert(NodeId node) {
  if (active_.erase(node) > 0) predicted_.reset(node);
}

}  // namespace eslurm::cluster
