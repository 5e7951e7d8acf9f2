// Struct-of-arrays node state for 100K-node worlds.
//
// The per-node-object model (a vector of NodeInfo with a string name and
// mixed-width fields, plus unordered_set side tables in the RM) costs a
// pointer chase and a hash probe per node per sweep.  At 16K+ nodes the
// heartbeat/monitoring sweeps dominate the simulation's wall clock, so
// the hot state lives here instead: one flat array per field, indexed by
// NodeId, with 64-bit bitsets answering the membership queries ("all
// alive", "drainable", "schedulable") a whole word at a time.
//
// Ownership: ClusterModel owns the authoritative fields (state,
// state_since, failure_count, the `up` bitset and the derived base
// risk) and mutates them only through apply_state; the RM maintains the
// scheduling metadata arrays (report deadlines) in place.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "util/time.hpp"

namespace eslurm::cluster {

using net::NodeId;

enum class NodeState : std::uint8_t {
  Up,          ///< healthy, can run jobs and relay messages
  Down,        ///< failed or powered off; unreachable
  Maintenance  ///< administratively drained (hardware replacement etc.)
};

/// Dense bitset over node ids backed by 64-bit words.  Set/reset report
/// whether the bit actually changed so membership counts stay O(1), and
/// word-level combinators (`assign_and_not`, `for_each_diff`) let health
/// sweeps process 64 nodes per instruction instead of one hash probe
/// per node.
class NodeBitset {
 public:
  NodeBitset() = default;
  explicit NodeBitset(std::size_t bits) { resize(bits); }

  void resize(std::size_t bits);
  std::size_t size() const { return bits_; }

  bool test(NodeId id) const {
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }
  /// Sets bit `id`; returns true if it was previously clear.
  bool set(NodeId id) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t mask = 1ull << (id & 63);
    if (word & mask) return false;
    word |= mask;
    ++count_;
    return true;
  }
  /// Clears bit `id`; returns true if it was previously set.
  bool reset(NodeId id) {
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t mask = 1ull << (id & 63);
    if (!(word & mask)) return false;
    word &= ~mask;
    --count_;
    return true;
  }

  std::size_t count() const { return count_; }
  bool any() const { return count_ > 0; }
  bool none() const { return count_ == 0; }
  void set_all();

  /// *this = a & ~b (sizes must match); recounts in one word pass.
  void assign_and_not(const NodeBitset& a, const NodeBitset& b);

  /// Calls `fn(NodeId)` for every set bit in ascending id order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<NodeId>((w << 6) + static_cast<std::size_t>(bit)));
        word &= word - 1;
      }
    }
  }

  /// Calls `fn(NodeId, bool now_set)` for every bit that differs between
  /// *this and `other`, ascending -- the transition scan of a health
  /// refresh (`now_set` is the bit's value in `other`).
  template <typename Fn>
  void for_each_diff(const NodeBitset& other, Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t diff = words_[w] ^ other.words_[w];
      while (diff) {
        const int bit = __builtin_ctzll(diff);
        const NodeId id = static_cast<NodeId>((w << 6) + static_cast<std::size_t>(bit));
        fn(id, (other.words_[w] >> bit) & 1u);
        diff &= diff - 1;
      }
    }
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

  bool operator==(const NodeBitset& other) const {
    return bits_ == other.bits_ && words_ == other.words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
  std::size_t count_ = 0;
};

/// The flat node-state arrays.  Every field of the old NodeInfo that the
/// hot paths touch, one contiguous array each; names and the homogeneous
/// hardware description (cores, memory) stay with ClusterModel and are
/// materialized on demand.
struct NodeSoa {
  explicit NodeSoa(std::size_t n);

  std::size_t size() const { return state.size(); }

  // --- authoritative cluster state (mutate via apply_state only) -------
  std::vector<NodeState> state;
  std::vector<SimTime> state_since;
  std::vector<std::uint32_t> failure_count;  ///< lifetime failures observed
  NodeBitset up;                             ///< state[i] == Up
  /// Failure-history base risk in [0, 1): failures / (failures + 8),
  /// the chronic-flapper term of the failure-aware placement scorer,
  /// updated whenever failure_count changes.
  std::vector<double> risk;

  // --- RM-maintained scheduling metadata -------------------------------
  /// Per-node heartbeat deadline: the sim-time by which the next status
  /// report must arrive (kTimeNever = no report expected yet).  Written
  /// by the RM's report handler; scanned for overdue nodes.
  std::vector<SimTime> report_deadline;

  /// Applies a state transition; returns false if it was a no-op.
  /// Maintains `up`, `state_since`, `failure_count` and `risk`.
  bool apply_state(NodeId id, NodeState to, SimTime now);

  /// Nodes whose report deadline has passed (deadline set and < now).
  std::size_t overdue_reports(SimTime now) const;
};

}  // namespace eslurm::cluster
