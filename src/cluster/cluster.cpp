#include "cluster/cluster.hpp"

#include <utility>

namespace eslurm::cluster {

ClusterModel::ClusterModel(sim::Engine& engine, std::size_t n, std::string name_prefix,
                           int cores_per_node, std::int64_t memory_mb)
    : engine_(engine),
      soa_(n),
      name_prefix_(std::move(name_prefix)),
      cores_per_node_(cores_per_node),
      memory_mb_(memory_mb) {}

NodeInfo ClusterModel::node(NodeId id) const {
  NodeInfo info;
  info.id = id;
  info.name = node_name(id);
  info.cores = cores_per_node_;
  info.memory_mb = memory_mb_;
  info.state = soa_.state[id];
  info.state_since = soa_.state_since[id];
  info.failure_count = soa_.failure_count[id];
  return info;
}

std::vector<NodeId> ClusterModel::ids_in_state(NodeState state) const {
  std::vector<NodeId> out;
  if (state == NodeState::Up) {
    out.reserve(soa_.up.count());
    soa_.up.for_each_set([&](NodeId id) { out.push_back(id); });
    return out;
  }
  for (std::size_t i = 0; i < soa_.size(); ++i)
    if (soa_.state[i] == state) out.push_back(static_cast<NodeId>(i));
  return out;
}

void ClusterModel::set_state(NodeId id, NodeState state) {
  const NodeState old = soa_.state.at(id);
  if (!soa_.apply_state(id, state, engine_.now())) return;
  for (const auto& obs : observers_) obs(id, old, state);
}

void ClusterModel::add_observer(StateObserver observer) {
  observers_.push_back(std::move(observer));
}

std::function<bool(NodeId)> ClusterModel::liveness() const {
  return [this](NodeId id) { return alive(id); };
}

}  // namespace eslurm::cluster
