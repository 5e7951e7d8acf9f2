// The master's view of its compute nodes (free, sidelined, allocated,
// drained, believed down).  The ledger is its only owner: the resource
// manager changes it through the transitions below, and `check()` lists
// the invariants it breaks.  DESIGN.md §14 states the rules.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/node_soa.hpp"
#include "sched/job.hpp"

namespace eslurm::rm {

using net::NodeId;

/// Which nodes play which role.  Compute nodes are the schedulable pool;
/// satellites (ESLURM only) relay traffic and never run jobs.
struct RmDeployment {
  NodeId master = 0;
  std::vector<NodeId> satellites;
  std::vector<NodeId> compute;
};

class NodeLedger {
 public:
  /// Failure-aware placement penalty; the lowest (penalty, id) pairs win.
  using Penalty = std::function<double(NodeId)>;
  using Transition = std::function<void(NodeId, bool now_down)>;

  /// Every compute node starts free, in deployment order.  Throws
  /// std::invalid_argument when a role id is out of range, repeated, or
  /// holds two roles.
  NodeLedger(std::size_t node_count, const RmDeployment& deployment);

  // --- transitions -----------------------------------------------------
  /// Takes `count` free nodes believed alive and undrained for `job`:
  /// without `penalty` by popping the LIFO free list and sidelining the
  /// unhealthy nodes met; with it, by sidelining every unhealthy free node
  /// and taking the cheapest.  False, holding nothing, when too few qualify.
  bool allocate(sched::JobId job, int count, const Penalty& penalty = {});
  /// Clean termination: drained nodes are sidelined, the rest freed.
  void release(sched::JobId job);
  /// Teardown after an abort: nodes dead in `alive` or believed down are
  /// marked down and sidelined, drained ones sidelined, the rest freed.
  void reclaim(sched::JobId job, const cluster::NodeBitset& alive);
  struct DownNotice {
    bool changed;        ///< the node was believed alive until now
    sched::JobId owner;  ///< job holding the node, or sched::kNoJob
  };
  /// Marks a compute node down and sidelines it if it is free.
  DownNotice mark_down(NodeId node) {
    const bool changed = believed_down_.set(node);
    if (free_remove(node)) sidelined_.push_back(node);
    return {changed, owner_[node]};
  }
  /// Believes down exactly the compute nodes not `alive`, reporting each
  /// change, then merges the sidelined nodes back.
  void refresh(const cluster::NodeBitset& alive, const Transition& on_transition = {});
  /// Keeps `node` from new work.  A free node leaves the free list now, so
  /// the scheduler never plans with capacity it cannot launch on.
  void drain(NodeId node) {
    drained_.set(node);
    if (free_remove(node)) sidelined_.push_back(node);
  }
  /// Marks a drained node as drained on a failure prediction.
  void flag_proactive_drain(NodeId node) { proactive_drained_.set(node); }
  /// Clears both drain flags and merges the sidelined nodes back.
  void resume(NodeId node) {
    drained_.reset(node);
    proactive_drained_.reset(node);
    merge_sidelined();
  }

  // --- queries ---------------------------------------------------------
  std::size_t free_count() const { return free_.size(); }
  sched::JobId owner(NodeId node) const { return owner_[node]; }  ///< or kNoJob
  /// The nodes allocated to `job`, empty when it holds none.
  const std::vector<NodeId>& nodes(sched::JobId job) const;
  bool is_compute(NodeId node) const { return compute_.test(node); }
  bool proactive_drained(NodeId node) const { return proactive_drained_.test(node); }
  const cluster::NodeBitset& drained() const { return drained_; }
  const cluster::NodeBitset& believed_down() const { return believed_down_; }

  /// One line per violated invariant; empty when the state is consistent.
  std::vector<std::string> check() const;

 private:
  void free_push(NodeId node) { if (free_mark_.set(node)) free_.push_back(node); }
  bool free_remove(NodeId node);
  bool healthy(NodeId node) const {
    return !believed_down_.test(node) && !drained_.test(node);
  }
  /// Returns sidelined nodes to the free list, except drained ones.
  void merge_sidelined();
  /// Removes `job`'s allocation and clears its reverse-index entries.
  std::vector<NodeId> take(sched::JobId job);

  /// LIFO: allocation reuses the most recently freed nodes, which is
  /// load-bearing for determinism.  free_mark_ mirrors its membership.
  std::vector<NodeId> free_;
  cluster::NodeBitset free_mark_;
  /// Out of the free list because believed down or drained, so
  /// allocation does not rescan them; merged back on refresh and resume.
  std::vector<NodeId> sidelined_;
  std::unordered_map<sched::JobId, std::vector<NodeId>> allocations_;
  /// node -> job allocated it: a node death finds its victim in O(1).
  std::vector<sched::JobId> owner_;
  cluster::NodeBitset believed_down_;
  cluster::NodeBitset drained_;
  cluster::NodeBitset proactive_drained_;  ///< subset of drained_
  cluster::NodeBitset compute_;
  cluster::NodeBitset down_scratch_;  ///< refresh's next view, kept allocated
};

}  // namespace eslurm::rm
