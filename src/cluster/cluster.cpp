#include "cluster/cluster.hpp"

#include <utility>

namespace eslurm::cluster {

ClusterModel::ClusterModel(sim::Engine& engine, std::size_t n) : engine_(engine), soa_(n) {}

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
