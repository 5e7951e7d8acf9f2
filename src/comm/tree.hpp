// K-ary communication tree with timeout-based fault repair -- the
// structure Slurm-style RMs use for fan-out, and the base the FP-Tree
// rearranges (Section IV-B).
//
// Construction rule (identical to the paper's): a node that receives the
// contiguous node-list range [b, e) splits it into min(width, len) near-
// equal groups; the first element of each group becomes a child and the
// rest of the group is that child's subtree range.  Because every node
// applies the same rule, a node's position in the flat list fully
// determines its position in the tree -- which is exactly what lets the
// FP-Tree relocate likely-to-fail nodes by rearranging the list.
//
// Fault tolerance: a child that does not accept the relay within
// `timeout` is retried `retries` times, then declared unreachable and its
// subtree is *adopted* by the parent (re-partitioned among new children).
// A child that accepts but never reports completion is caught by a
// watchdog sized to the subtree depth, and its subtree is adopted too.
// A node that already has the payload drops a repeated relay from its own
// parent (a wire duplicate, or the parent's retry after a lost ack) and
// answers an adopting parent's relay with an empty completion.
//
// Per-broadcast state is indexed by list position, not node id: the node
// at position p keeps its relay context in ctx[p] (the root sits at
// list.size()), and since a relay for subtree [b, e) goes to the node at
// position b - 1, relay and completion messages name their parent by
// position.  Every relay's child slots live in one arena per broadcast;
// a relay names the parent's slot it fills, and the child's completion
// carries that index back, so the parent closes the slot without a
// search.  Both arrays are the tree's routing field of the pooled
// broadcast record (see Broadcaster): they and the delivered bitmap are
// recycled with their capacity, and relay bodies carry the record's pool
// slot, so a steady-state broadcast neither hashes nor allocates.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/broadcaster.hpp"
#include "net/transport.hpp"

namespace eslurm::comm {

/// Contiguous slice of a broadcast node list.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Splits [begin, end) into min(width, len) contiguous near-equal groups
/// (earlier groups take the remainder) and calls `visit(Range)` for each,
/// in order.  Shared by the live broadcaster and the FP-Tree leaf locator
/// so both see the same tree shape.
template <typename Visit>
void for_each_group(std::size_t begin, std::size_t end, int width, Visit&& visit) {
  const std::size_t len = end - begin;
  if (len == 0) return;
  if (width < 1) throw std::invalid_argument("for_each_group: width must be >= 1");
  const std::size_t g = std::min<std::size_t>(static_cast<std::size_t>(width), len);
  const std::size_t base = len / g;
  const std::size_t rem = len % g;
  std::size_t cursor = begin;
  for (std::size_t i = 0; i < g; ++i) {
    const std::size_t take = base + (i < rem ? 1 : 0);
    visit(Range{cursor, cursor + take});
    cursor += take;
  }
}

/// Tree depth estimate used to size completion watchdogs.
int tree_depth_estimate(std::size_t n, int width);

/// The tree's routing field of a broadcast record: the relay context of
/// each list position, and one arena holding every relay's child slots.
struct TreeRoute {
  /// A list position (the root's is list.size()); kNoPos marks "none".
  using Pos = std::uint32_t;
  static constexpr Pos kNoPos = UINT32_MAX;
  /// An index into `slots`.
  using SlotIndex = std::uint32_t;

  /// One child of one relay: the child, the subtree it was handed (list
  /// positions [begin, end)), and the completion watchdog armed once it
  /// accepted.
  struct ChildSlot {
    NodeId child = net::kNoNode;
    Pos begin = 0;
    Pos end = 0;
    bool done = false;
    sim::EventId watchdog = sim::kInvalidEvent;

    Range subtree() const { return Range{begin, end}; }
  };
  /// Relay context of the node at one list position.  Reset when that
  /// node takes its first relay.
  struct NodeCtx {
    Pos parent = kNoPos;        ///< kNoPos marks the root
    SlotIndex parent_slot = 0;  ///< the parent's slot this node fills
    std::uint32_t pending = 0;  ///< this node's slots not yet done
    // Subtree aggregates reported upward with the completion message.
    std::uint32_t agg_unreachable = 0;
    int agg_repairs = 0;
    bool done_sent = false;

    void reset(Pos parent_pos, SlotIndex slot) {
      parent = parent_pos;
      parent_slot = slot;
      pending = 0;
      agg_unreachable = 0;
      agg_repairs = 0;
      done_sent = false;
    }
  };
  // Both are touched at random on every relay and completion: keep them small.
  static_assert(sizeof(NodeCtx) <= 24 && sizeof(ChildSlot) <= 24);

  std::vector<NodeCtx> ctx;  ///< indexed by position; only [0, n] in use
  /// Every relay's child slots, in creation order; cleared (capacity
  /// kept) by each broadcast.  fan_out may grow it, so hold indices,
  /// never references, across a fan_out.
  std::vector<ChildSlot> slots;
  /// Completion watchdog per level of subtree depth:
  /// contact_budget * (retries + 1), fixed for the broadcast.
  SimTime watchdog_unit = 0;
};

class TreeBroadcaster : public PooledBroadcaster<TreeRoute> {
 public:
  /// With a `transport`, all control traffic (relay + completion
  /// messages) is sent through the reliable channel: transient message
  /// loss is retried below the tree's own retry logic, and a retransmitted
  /// or duplicated relay is suppressed before it reaches the forwarding
  /// handlers.  The transport must outlive the broadcaster; nullptr
  /// (default) keeps raw Network::send semantics and bit-identical
  /// behaviour.
  explicit TreeBroadcaster(net::Network& network, std::string name = "tree",
                           net::ReliableTransport* transport = nullptr);

  void broadcast(NodeId root, std::shared_ptr<const std::vector<NodeId>> targets,
                 const BroadcastOptions& options, Callback done) override;
  using Broadcaster::broadcast;

  /// Number of subtree adoptions across all finished broadcasts.
  std::uint64_t total_repairs() const { return total_repairs_; }

 protected:
  /// Hook for the FP-Tree: returns the (possibly rearranged) node list to
  /// build the tree from.  Default: identity.
  virtual std::shared_ptr<const std::vector<NodeId>> prepare(
      std::shared_ptr<const std::vector<NodeId>> targets, const BroadcastOptions& options);

 private:
  using Pos = TreeRoute::Pos;
  static constexpr Pos kNoPos = TreeRoute::kNoPos;
  using SlotIndex = TreeRoute::SlotIndex;
  using ChildSlot = TreeRoute::ChildSlot;
  using NodeCtx = TreeRoute::NodeCtx;

  struct RelayBody {
    std::uint64_t broadcast_id;
    std::uint32_t record;
    Pos parent;
    SlotIndex slot;  ///< the parent's slot the receiver fills
    Pos begin;       ///< subtree [begin, end)
    Pos end;
  };
  struct DoneBody {
    std::uint64_t broadcast_id;
    std::uint32_t record;
    Pos parent;
    SlotIndex slot;  ///< the parent's slot this completion closes
    std::uint32_t unreachable;
    int repairs;
  };
  // Over the inline budget, every relay and completion takes InplaceAny's heap fallback.
  static_assert(std::is_trivially_copyable_v<RelayBody> &&
                sizeof(RelayBody) <= net::kMessageInlineBytes);
  static_assert(std::is_trivially_copyable_v<DoneBody> &&
                sizeof(DoneBody) <= net::kMessageInlineBytes);

  static NodeId node_at(const Record& record, Pos pos) {
    return pos == record.list->size() ? record.root : (*record.list)[pos];
  }
  void on_relay(NodeId self, const net::Message& msg);
  void on_done(NodeId self, const net::Message& msg);
  void fan_out(InFlight& record, Pos pos, Range range);
  void attempt_child(InFlight& record, Pos pos, SlotIndex slot, int attempts_left);
  void child_accepted(std::uint64_t id, std::uint32_t index, Pos pos, SlotIndex slot,
                      int attempts_left, bool ok);
  void watchdog_fired(std::uint64_t id, std::uint32_t index, Pos pos, SlotIndex slot);
  void child_finished(InFlight& record, Pos pos, SlotIndex slot, std::uint32_t unreachable,
                      int repairs);
  void maybe_finish_node(InFlight& record, Pos pos);
  void send_done(InFlight& record, Pos from, Pos to, SlotIndex slot,
                 std::uint32_t unreachable, int repairs);

  net::ReliableTransport* transport_;
  net::MessageType relay_type_;
  net::MessageType done_type_;
  std::uint64_t total_repairs_ = 0;
};

}  // namespace eslurm::comm
