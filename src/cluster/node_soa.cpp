#include "cluster/node_soa.hpp"

namespace eslurm::cluster {

void NodeBitset::resize(std::size_t bits) {
  bits_ = bits;
  words_.assign((bits + 63) / 64, 0);
  count_ = 0;
}

void NodeBitset::set_all() {
  std::fill(words_.begin(), words_.end(), ~0ull);
  if (bits_ & 63) words_.back() = (1ull << (bits_ & 63)) - 1;
  count_ = bits_;
}

void NodeBitset::assign_and_not(const NodeBitset& a, const NodeBitset& b) {
  words_.resize(a.words_.size());
  bits_ = a.bits_;
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] = a.words_[w] & ~b.words_[w];
    count += static_cast<std::size_t>(__builtin_popcountll(words_[w]));
  }
  count_ = count;
}

NodeSoa::NodeSoa(std::size_t n)
    : state(n, NodeState::Up),
      state_since(n, 0),
      failure_count(n, 0),
      risk(n, 0.0),
      report_deadline(n, kTimeNever) {
  up.resize(n);
  up.set_all();
}

bool NodeSoa::apply_state(NodeId id, NodeState to, SimTime now) {
  const NodeState old = state[id];
  if (old == to) return false;
  state[id] = to;
  state_since[id] = now;
  if (to == NodeState::Up) up.set(id);
  else up.reset(id);
  if (to == NodeState::Down) {
    const auto failures = static_cast<double>(++failure_count[id]);
    risk[id] = failures / (failures + 8.0);
  }
  return true;
}

std::size_t NodeSoa::overdue_reports(SimTime now) const {
  std::size_t overdue = 0;
  for (std::size_t i = 0; i < report_deadline.size(); ++i)
    if (report_deadline[i] != kTimeNever && report_deadline[i] < now) ++overdue;
  return overdue;
}

}  // namespace eslurm::cluster
