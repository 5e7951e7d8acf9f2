#include "comm/fp_tree.hpp"

#include <chrono>

#include "telemetry/telemetry.hpp"

namespace eslurm::comm {
namespace {

void mark_leaves(std::size_t begin, std::size_t end, int width, std::vector<bool>& leaf) {
  // Mirrors the live fan-out: each group's head becomes an internal node
  // (unless it has no subtree) and the tail recurses.
  for_each_group(begin, end, width, [width, &leaf](Range group) {
    if (group.size() == 1) {
      leaf[group.begin] = true;
    } else {
      mark_leaves(group.begin + 1, group.end, width, leaf);
    }
  });
}

/// The rearranger proper, against precomputed leaf flags.
std::vector<NodeId> arrange(const std::vector<NodeId>& list, const std::vector<bool>& leaf,
                            const cluster::FailurePredictor& predictor,
                            RearrangeStats* stats) {
  const std::size_t n = list.size();

  // Split the input (stably) into healthy and predicted-failed queues.
  std::vector<NodeId> healthy, predicted;
  healthy.reserve(n);
  for (NodeId node : list)
    (predictor.predicted_failed(node) ? predicted : healthy).push_back(node);

  RearrangeStats local;
  local.predicted = predicted.size();

  std::vector<NodeId> out(n);
  std::size_t h = 0, p = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (leaf[pos]) ++local.leaf_slots;
    const bool want_predicted = leaf[pos];
    NodeId chosen;
    if (want_predicted) {
      if (p < predicted.size()) {
        chosen = predicted[p++];
        ++local.predicted_on_leaf;
      } else {
        chosen = healthy[h++];
      }
    } else {
      if (h < healthy.size()) {
        chosen = healthy[h++];
      } else {
        chosen = predicted[p++];
      }
    }
    out[pos] = chosen;
  }
  if (stats) *stats = local;
  return out;
}

constexpr double kRebuildBuckets[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
                                      0.1,   0.2,   0.5,   1.0,  2.0,  5.0,
                                      10.0,  20.0,  50.0,  100.0};

}  // namespace

std::vector<bool> locate_leaf_positions(std::size_t n, int width) {
  std::vector<bool> leaf(n, false);
  mark_leaves(0, n, width, leaf);
  return leaf;
}

std::vector<NodeId> rearrange_nodelist(const std::vector<NodeId>& list, int width,
                                       const cluster::FailurePredictor& predictor,
                                       RearrangeStats* stats) {
  return arrange(list, locate_leaf_positions(list.size(), width), predictor, stats);
}

FpTreeBroadcaster::FpTreeBroadcaster(net::Network& network,
                                     const cluster::FailurePredictor& predictor,
                                     std::string name,
                                     net::ReliableTransport* transport)
    : TreeBroadcaster(network, std::move(name), transport), predictor_(predictor) {}

std::shared_ptr<const std::vector<NodeId>> FpTreeBroadcaster::prepare(
    std::shared_ptr<const std::vector<NodeId>> targets, const BroadcastOptions& options) {
  auto* t = telemetry_;
  const auto wall_start = t ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point();
  const std::vector<bool> leaf = locate_leaf_positions(targets->size(), options.tree_width);
  RearrangeStats stats;
  auto rearranged = std::make_shared<const std::vector<NodeId>>(
      arrange(*targets, leaf, predictor_, &stats));
  cumulative_.predicted += stats.predicted;
  cumulative_.predicted_on_leaf += stats.predicted_on_leaf;
  cumulative_.leaf_slots += stats.leaf_slots;
  if (ground_truth_) {
    for (std::size_t pos = 0; pos < rearranged->size(); ++pos) {
      if (ground_truth_((*rearranged)[pos])) {
        ++cumulative_.failed_encountered;
        if (leaf[pos]) ++cumulative_.failed_on_leaf;
      }
    }
  }
  ++trees_;
  if (t) {
    // The constructor runs on every broadcast, so its *wall-clock* cost
    // is the quantity of interest (the sim charges it separately through
    // satellite_per_node_us).  Milliseconds, bucketed down to 1 us.
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall_start)
            .count();
    t->metrics
        .histogram("comm.fp_rebuild_ms",
                   {std::begin(kRebuildBuckets), std::end(kRebuildBuckets)})
        .observe(wall_ms);
    t->metrics.counter("comm.fp_rebuilds").inc();
    t->tracer.instant("fp-tree-rebuild", "comm",
                      {{"nodes", static_cast<double>(targets->size())},
                       {"predicted", static_cast<double>(stats.predicted)},
                       {"leaf_slots", static_cast<double>(stats.leaf_slots)},
                       {"wall_ms", wall_ms}});
  }
  return rearranged;
}

}  // namespace eslurm::comm
