// FP-Tree: the failure-prediction-based communication tree (Section IV).
//
// The FP-Tree Constructor of Fig. 3/4 has three components:
//   1. failure-node prediction  -> a cluster::FailurePredictor plugin;
//   2. leaf-node location       -> simulate the grouping recursion
//      (Eq. 2, Theta(n)) to find which positions of the flat node list
//      become leaves of the tree;
//   3. node-list rearranging    -> O(n) pass that fills leaf positions
//      from the predicted-failed set first and non-leaf positions from
//      the healthy set first.
// The rearranged list is then broadcast through the ordinary k-ary tree,
// so a predicted-failed node can only ever stall itself, never a subtree.
//
// Steps 2 and 3 are each Theta(n), cheap enough that FpTreeBroadcaster
// rebuilds the arrangement from the current predictions on every
// broadcast; nothing carries over between rounds.
#pragma once

#include <functional>
#include <memory>

#include "cluster/monitoring.hpp"
#include "comm/tree.hpp"

namespace eslurm::comm {

/// Simulates the tree-construction recursion on a list of n nodes and
/// returns, for each list position, whether it ends up a leaf.
/// Runs in Theta(n) (Eq. 2 of the paper, via the master theorem).
std::vector<bool> locate_leaf_positions(std::size_t n, int width);

struct RearrangeStats {
  std::size_t predicted = 0;          ///< predicted-failed nodes in the list
  std::size_t predicted_on_leaf = 0;  ///< of those, placed on leaf positions
  std::size_t leaf_slots = 0;         ///< leaf positions available
  /// Ground-truth accounting (when a truth oracle is provided): nodes
  /// that really are failed at construction time, and how many of them
  /// ended up on leaves.  This is the paper's Section VII-A metric
  /// (81.7%): unpredicted failures land on leaves only by chance.
  std::size_t failed_encountered = 0;
  std::size_t failed_on_leaf = 0;

  double leaf_placement_ratio() const {
    return predicted ? static_cast<double>(predicted_on_leaf) /
                           static_cast<double>(predicted)
                     : 1.0;
  }
  double failed_leaf_ratio() const {
    return failed_encountered ? static_cast<double>(failed_on_leaf) /
                                    static_cast<double>(failed_encountered)
                              : 1.0;
  }
};

/// Rearranges `list` so predicted-failed nodes land on leaf positions.
/// Order is stable within the healthy and predicted subsets, preserving
/// any topology-aware ordering of the input (Section IV-E).
std::vector<NodeId> rearrange_nodelist(const std::vector<NodeId>& list, int width,
                                       const cluster::FailurePredictor& predictor,
                                       RearrangeStats* stats = nullptr);

class FpTreeBroadcaster final : public TreeBroadcaster {
 public:
  /// `transport` (optional) routes relay/done traffic through a reliable
  /// channel -- see TreeBroadcaster.
  FpTreeBroadcaster(net::Network& network, const cluster::FailurePredictor& predictor,
                    std::string name = "fp-tree",
                    net::ReliableTransport* transport = nullptr);

  /// Optional instrumentation: an oracle for nodes that are *really*
  /// failed (or failing), used only to fill the ground-truth fields of
  /// the cumulative stats.  Never consulted for the rearrangement.
  void set_ground_truth(std::function<bool(NodeId)> is_failed) {
    ground_truth_ = std::move(is_failed);
  }

  /// Aggregate rearrangement statistics over all broadcasts (drives the
  /// 81.7%-of-failed-nodes-on-leaves result of Section VII-A).
  const RearrangeStats& cumulative_stats() const { return cumulative_; }
  std::uint64_t trees_constructed() const { return trees_; }

 protected:
  std::shared_ptr<const std::vector<NodeId>> prepare(
      std::shared_ptr<const std::vector<NodeId>> targets,
      const BroadcastOptions& options) override;

 private:
  const cluster::FailurePredictor& predictor_;
  std::function<bool(NodeId)> ground_truth_;
  RearrangeStats cumulative_;
  std::uint64_t trees_ = 0;
};

}  // namespace eslurm::comm
