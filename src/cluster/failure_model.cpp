#include "cluster/failure_model.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace eslurm::cluster {

FailureModel::FailureModel(ClusterModel& cluster, Rng rng, FailureModelParams params)
    : cluster_(cluster),
      rng_(rng),
      params_(params),
      immune_(cluster.size(), false),
      repair_at_(cluster.size(), 0) {}

void FailureModel::set_immune(std::vector<NodeId> nodes) {
  std::fill(immune_.begin(), immune_.end(), false);
  for (NodeId n : nodes) immune_.at(n) = true;
}

void FailureModel::add_pre_failure_hook(PreFailureHook hook) {
  hooks_.push_back(std::move(hook));
}

NodeId FailureModel::pick_victim() {
  // Rejection-sample an alive, non-immune node; bounded attempts keep the
  // call O(1) in the common case of few failures.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto id = static_cast<NodeId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cluster_.size()) - 1));
    if (!immune_[id] && cluster_.alive(id)) return id;
  }
  return net::kNoNode;
}

void FailureModel::start(SimTime horizon) {
  horizon_ = horizon;
  arm_next_failure();
}

void FailureModel::arm_next_failure() {
  if (cluster_.alive_count() == 0) return;
  const double cluster_rate_per_hour =
      static_cast<double>(cluster_.alive_count()) / params_.node_mtbf_hours;
  const double gap_hours = rng_.exponential(1.0 / cluster_rate_per_hour);
  const SimTime at = cluster_.engine().now() + from_seconds(gap_hours * 3600.0);
  if (at > horizon_) return;
  cluster_.engine().schedule_at(at, [this] {
    const NodeId victim = pick_victim();
    if (victim != net::kNoNode) {
      const double lead_min =
          rng_.exponential(std::max(1e-3, params_.alert_lead_mean_minutes));
      const SimTime fail_at =
          cluster_.engine().now() + from_seconds(lead_min * 60.0);
      for (const auto& hook : hooks_) hook(victim, fail_at);
      const double repair_hours =
          params_.repair_mean_hours *
          std::exp(rng_.normal(0.0, params_.repair_sigma)) /
          std::exp(params_.repair_sigma * params_.repair_sigma / 2.0);
      cluster_.engine().schedule_at(fail_at, [this, victim, repair_hours] {
        execute_failure(victim, from_seconds(repair_hours * 3600.0));
      });
    }
    arm_next_failure();
  });
}

void FailureModel::execute_failure(NodeId node, SimTime repair_after) {
  const SimTime repair_at = cluster_.engine().now() + repair_after;
  if (!cluster_.alive(node)) {
    // Double failure: the node is already down.  Never count a second
    // injection or schedule a second repair -- but the outage must not
    // end before the *latest* failure's repair time, so the deadline
    // extends and the pending repair event re-arms itself (finish_repair).
    if (repair_at > repair_at_[node]) repair_at_[node] = repair_at;
    return;
  }
  repair_at_[node] = repair_at;
  ++injected_;
  cluster_.fail(node);
  if (auto* t = cluster_.engine().telemetry()) {
    t->metrics.counter("cluster.failures_injected").inc();
    // fail() has already run, so the alive count is the post-fail truth --
    // no hand-computed offset that drifts when fail() is a no-op.
    t->metrics.gauge("cluster.nodes_down")
        .set(static_cast<double>(cluster_.size() - cluster_.alive_count()));
    t->tracer.instant("node-failure", "cluster",
                      {{"node", static_cast<double>(node)},
                       {"repair_s", to_seconds(repair_after)}});
  }
  cluster_.engine().schedule_after(repair_after, [this, node] { finish_repair(node); });
}

void FailureModel::finish_repair(NodeId node) {
  if (cluster_.alive(node)) return;
  if (cluster_.engine().now() < repair_at_[node]) {
    // A later failure extended the outage while this repair was in
    // flight; come back at the extended deadline.
    cluster_.engine().schedule_at(repair_at_[node],
                                  [this, node] { finish_repair(node); });
    return;
  }
  cluster_.restore(node);
  if (auto* t = cluster_.engine().telemetry()) {
    t->metrics.counter("cluster.nodes_repaired").inc();
    t->metrics.gauge("cluster.nodes_down")
        .set(static_cast<double>(cluster_.size() - cluster_.alive_count()));
  }
}

void FailureModel::schedule_burst(const BurstEvent& burst) {
  cluster_.engine().schedule_at(burst.at, [this, burst] {
    std::size_t taken = 0;
    // Bursts hit a contiguous span of nodes (a rack / chassis group),
    // starting from a random origin.
    const auto n = static_cast<NodeId>(cluster_.size());
    const auto origin = static_cast<NodeId>(rng_.uniform_int(0, n - 1));
    const SimTime down_for = from_seconds(burst.duration_hours * 3600.0);
    for (NodeId offset = 0; offset < n && taken < burst.node_count; ++offset) {
      const NodeId id = (origin + offset) % n;
      if (immune_[id] || !cluster_.alive(id)) continue;
      // A short staggered lead so monitoring sees the wave coming.
      const SimTime fail_at = cluster_.engine().now() + milliseconds(10 * taken);
      for (const auto& hook : hooks_) hook(id, fail_at);
      cluster_.engine().schedule_at(fail_at, [this, id, down_for] {
        execute_failure(id, down_for);
      });
      ++taken;
    }
  });
}

void FailureModel::fail_now(NodeId node, SimTime down_for) {
  // Hooks announce an *upcoming* transition; a node that is already down
  // has none, and execute_failure only extends its outage.
  if (cluster_.alive(node))
    for (const auto& hook : hooks_) hook(node, cluster_.engine().now());
  execute_failure(node, down_for);
}

}  // namespace eslurm::cluster
