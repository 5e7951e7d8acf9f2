#include "rm/node_ledger.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace eslurm::rm {

NodeLedger::NodeLedger(std::size_t node_count, const RmDeployment& deployment)
    : free_(deployment.compute), owner_(node_count, sched::kNoJob) {
  for (cluster::NodeBitset* bits : {&free_mark_, &believed_down_, &drained_,
                                    &proactive_drained_, &compute_, &down_scratch_})
    bits->resize(node_count);
  // The roles must be disjoint: a master or satellite in the compute
  // list would be handed jobs, and a repeated compute id would sit in
  // the free list twice.
  std::vector<const char*> role(node_count, nullptr);
  const auto claim = [&](NodeId node, const char* as) {
    if (node < node_count && !role[node]) {
      role[node] = as;
      return;
    }
    std::ostringstream error;
    error << "NodeLedger: " << as << " node " << node;
    if (node >= node_count) error << " is outside the " << node_count << "-node world";
    else if (role[node] == as) error << " is listed twice";
    else error << " is also the " << role[node];
    throw std::invalid_argument(error.str());
  };
  claim(deployment.master, "master");
  for (const NodeId node : deployment.satellites) claim(node, "satellite");
  for (const NodeId node : deployment.compute) {
    claim(node, "compute");
    compute_.set(node);
    free_mark_.set(node);
  }
}

bool NodeLedger::allocate(sched::JobId job, int count, const Penalty& penalty) {
  if (static_cast<int>(free_.size()) < count) return false;
  std::vector<NodeId> taken;
  taken.reserve(static_cast<std::size_t>(count));
  if (!penalty) {
    while (static_cast<int>(taken.size()) < count && !free_.empty()) {
      const NodeId node = free_.back();
      free_.pop_back();
      free_mark_.reset(node);
      if (healthy(node)) taken.push_back(node);
      else sidelined_.push_back(node);
    }
    if (static_cast<int>(taken.size()) < count) {
      for (const NodeId node : taken) free_push(node);
      return false;
    }
  } else {
    std::vector<std::pair<double, NodeId>> scored;
    scored.reserve(free_.size());
    for (const NodeId node : free_) {
      free_mark_.reset(node);
      if (healthy(node)) scored.emplace_back(0.0, node);
      else sidelined_.push_back(node);
    }
    free_.clear();
    if (static_cast<int>(scored.size()) < count) {
      for (const auto& entry : scored) free_push(entry.second);
      return false;
    }
    for (auto& [score, node] : scored) score = penalty(node);
    std::sort(scored.begin(), scored.end());  // (penalty, id): deterministic
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (static_cast<int>(i) < count) taken.push_back(scored[i].second);
      else free_push(scored[i].second);
    }
  }
  for (const NodeId node : taken) owner_[node] = job;
  allocations_[job] = std::move(taken);
  return true;
}

void NodeLedger::release(sched::JobId job) {
  for (const NodeId node : take(job)) {
    // A node drained while the job ran goes idle-drained, never back
    // into the free list (resume returns it).
    if (drained_.test(node)) sidelined_.push_back(node);
    else free_push(node);
  }
}

void NodeLedger::reclaim(sched::JobId job, const cluster::NodeBitset& alive) {
  for (const NodeId node : take(job)) {
    if (!alive.test(node) || believed_down_.test(node)) {
      believed_down_.set(node);
      sidelined_.push_back(node);
    } else if (drained_.test(node)) {
      sidelined_.push_back(node);
    } else {
      free_push(node);
    }
  }
}

void NodeLedger::refresh(const cluster::NodeBitset& alive,
                         const Transition& on_transition) {
  // Word-parallel: compute AND NOT alive, then XOR for the transitions.
  down_scratch_.assign_and_not(compute_, alive);
  if (on_transition) believed_down_.for_each_diff(down_scratch_, on_transition);
  std::swap(believed_down_, down_scratch_);
  merge_sidelined();  // one still down is sidelined again when next popped
}

const std::vector<NodeId>& NodeLedger::nodes(sched::JobId job) const {
  static const std::vector<NodeId> kNone;
  const auto it = allocations_.find(job);
  return it != allocations_.end() ? it->second : kNone;
}

bool NodeLedger::free_remove(NodeId node) {
  if (!free_mark_.reset(node)) return false;
  free_.erase(std::find(free_.begin(), free_.end(), node));
  return true;
}

void NodeLedger::merge_sidelined() {
  std::vector<NodeId> still_drained;
  for (const NodeId node : sidelined_) {
    if (drained_.test(node)) still_drained.push_back(node);
    else free_push(node);
  }
  sidelined_ = std::move(still_drained);
}

std::vector<NodeId> NodeLedger::take(sched::JobId job) {
  const auto it = allocations_.find(job);
  if (it == allocations_.end()) return {};
  std::vector<NodeId> nodes = std::move(it->second);
  allocations_.erase(it);
  for (const NodeId node : nodes) owner_[node] = sched::kNoJob;
  return nodes;
}

std::vector<std::string> NodeLedger::check() const {
  std::vector<std::string> violations;
  const auto fail = [&violations](const auto&... parts) {
    std::ostringstream line;
    (line << ... << parts);
    violations.push_back(line.str());
  };
  const std::size_t n = owner_.size();
  // How often each node is held (free, sidelined or allocated), and by
  // which allocation; a compute node must be held exactly once.
  std::vector<int> holds(n, 0);
  std::vector<sched::JobId> held_by(n, sched::kNoJob);
  const auto hold = [&](NodeId node, const char* where) {
    if (node >= n) {
      fail(where, " holds node ", node, " outside the ", n, "-node world");
      return false;
    }
    ++holds[node];
    return true;
  };
  for (const NodeId node : free_) {
    if (!hold(node, "free list")) continue;
    if (!free_mark_.test(node)) fail("free node ", node, " is not in the free mark");
    if (holds[node] > 1) fail("node ", node, " is listed twice in the free list");
    if (drained_.test(node)) fail("free node ", node, " is drained");
  }
  if (free_mark_.count() != free_.size())
    fail("free mark has ", free_mark_.count(), " nodes, free list ", free_.size());
  for (const NodeId node : sidelined_) hold(node, "sidelined list");
  for (const auto& [job, nodes] : allocations_) {
    for (const NodeId node : nodes)
      if (hold(node, "allocation")) held_by[node] = job;
  }
  for (NodeId node = 0; node < n; ++node) {
    const int expected = compute_.test(node) ? 1 : 0;
    if (holds[node] != expected)
      fail(expected ? "compute" : "non-compute", " node ", node, " is held ",
           holds[node], " times");
    if (owner_[node] != held_by[node])
      fail("reverse index maps node ", node, " to job ", owner_[node],
           " but the allocations to job ", held_by[node]);
    if (proactive_drained_.test(node) && !drained_.test(node))
      fail("node ", node, " is proactively drained but not drained");
  }
  return violations;
}

}  // namespace eslurm::rm
