// Cluster node model: node inventory, liveness, and failure bookkeeping.
//
// Nodes are homogeneous (as in the paper's evaluation: Tianhe-2A nodes
// are identical 12-core Xeons).  Roles -- master, satellite, compute --
// are a property of the RM deployment, not of the cluster itself.
//
// Hot state (up/down/drain status, state timestamps, failure counts)
// lives in flat struct-of-arrays storage (node_soa.hpp) so 100K-node
// sweeps touch contiguous arrays and bitset words, not per-node objects.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/node_soa.hpp"
#include "net/message.hpp"
#include "sim/engine.hpp"
#include "util/time.hpp"

namespace eslurm::cluster {

using net::NodeId;

class ClusterModel {
 public:
  /// Builds `n` nodes, all up.
  ClusterModel(sim::Engine& engine, std::size_t n);

  std::size_t size() const { return soa_.size(); }

  // --- hot-path field accessors (O(1) array reads) ---------------------
  bool alive(NodeId id) const { return soa_.up.test(id); }
  NodeState state(NodeId id) const { return soa_.state[id]; }
  SimTime state_since(NodeId id) const { return soa_.state_since[id]; }
  std::uint32_t failure_count(NodeId id) const { return soa_.failure_count[id]; }
  /// Failure-history base risk (failures / (failures + 8)).
  double base_risk(NodeId id) const { return soa_.risk[id]; }

  std::size_t alive_count() const { return soa_.up.count(); }
  std::size_t failed_count() const { return soa_.size() - soa_.up.count(); }

  /// The "all alive" bitset, for word-at-a-time health scans.
  const NodeBitset& alive_bits() const { return soa_.up; }
  /// Full SoA access.  The const view is for scans; the mutable view is
  /// for the RM-maintained metadata arrays (report deadlines) -- state
  /// transitions must still go through set_state.
  const NodeSoa& soa() const { return soa_; }
  NodeSoa& soa() { return soa_; }

  /// State transitions.  Idempotent; observers fire only on real changes.
  void set_state(NodeId id, NodeState state);
  void fail(NodeId id) { set_state(id, NodeState::Down); }
  void restore(NodeId id) { set_state(id, NodeState::Up); }

  /// Observers, e.g. the monitoring substrate and RM node tracking.
  using StateObserver = std::function<void(NodeId, NodeState old_state, NodeState new_state)>;
  void add_observer(StateObserver observer);

  /// Liveness oracle in the shape Network expects.
  std::function<bool(NodeId)> liveness() const;

  sim::Engine& engine() { return engine_; }

 private:
  sim::Engine& engine_;
  NodeSoa soa_;
  std::vector<StateObserver> observers_;
};

}  // namespace eslurm::cluster
