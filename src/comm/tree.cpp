#include "comm/tree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace eslurm::comm {

int tree_depth_estimate(std::size_t n, int width) {
  int depth = 0;
  std::size_t remaining = n;
  const auto w = static_cast<std::size_t>(std::max(2, width));
  while (remaining > 0) {
    ++depth;
    remaining /= w;
  }
  return depth;
}

TreeBroadcaster::TreeBroadcaster(net::Network& network, std::string name,
                                 net::ReliableTransport* transport)
    : PooledBroadcaster(network, std::move(name)), transport_(transport) {
  relay_type_ = alloc_type_range(2);
  done_type_ = relay_type_ + 1;
  net_.register_handler(relay_type_,
                        [this](NodeId self, const net::Message& m) { on_relay(self, m); });
  net_.register_handler(done_type_,
                        [this](NodeId self, const net::Message& m) { on_done(self, m); });
}

std::shared_ptr<const std::vector<NodeId>> TreeBroadcaster::prepare(
    std::shared_ptr<const std::vector<NodeId>> targets, const BroadcastOptions&) {
  return targets;
}

void TreeBroadcaster::broadcast(NodeId root,
                                std::shared_ptr<const std::vector<NodeId>> targets,
                                const BroadcastOptions& options, Callback done) {
  InFlight& record = begin(root, prepare(std::move(targets), options), options, std::move(done));
  // Grow only, and keep the arena's capacity: a recycled record
  // allocates nothing.
  const std::size_t n = record.list->size();
  TreeRoute& route = record.route;
  if (route.ctx.size() < n + 1) route.ctx.resize(n + 1);
  route.slots.clear();
  // contact_budget covers the transport's retransmit schedule (== timeout
  // raw), so a watchdog never fires while a descendant is still
  // legitimately retrying.
  route.watchdog_unit =
      net::contact_budget(net_, transport_, options.timeout) * (options.retries + 1);

  const auto root_pos = static_cast<Pos>(n);
  route.ctx[root_pos].reset(kNoPos, 0);
  fan_out(record, root_pos, Range{0, n});
  maybe_finish_node(record, root_pos);
}

void TreeBroadcaster::fan_out(InFlight& record, Pos pos, Range range) {
  // Create every slot before issuing any send so `pending` can never dip
  // to zero while work remains.
  std::vector<ChildSlot>& slots = record.route.slots;
  const auto first_slot = static_cast<SlotIndex>(slots.size());
  for_each_group(range.begin, range.end, record.opts.tree_width, [&](Range group) {
    slots.push_back(ChildSlot{(*record.list)[group.begin], static_cast<Pos>(group.begin + 1),
                              static_cast<Pos>(group.end)});
  });
  const auto end_slot = static_cast<SlotIndex>(slots.size());
  record.route.ctx[pos].pending += end_slot - first_slot;
  for (SlotIndex i = first_slot; i < end_slot; ++i)
    attempt_child(record, pos, i, record.opts.retries);
}

void TreeBroadcaster::attempt_child(InFlight& record, Pos pos, SlotIndex slot,
                                    int attempts_left) {
  const ChildSlot& s = record.route.slots[slot];
  net::Message msg;
  msg.type = relay_type_;
  // The relay carries the payload plus the serialized subtree list.
  msg.bytes = record.opts.payload_bytes + 8 * s.subtree().size();
  msg.payload = RelayBody{record.id, record.index, pos, slot, s.begin, s.end};
  net::send(net_, transport_, node_at(record, pos), s.child, std::move(msg),
            record.opts.timeout,
            [this, id = record.id, index = record.index, pos, slot, attempts_left](bool ok) {
              child_accepted(id, index, pos, slot, attempts_left, ok);
            });
}

void TreeBroadcaster::child_accepted(std::uint64_t id, std::uint32_t index, Pos pos,
                                     SlotIndex slot, int attempts_left, bool ok) {
  InFlight* st = find(id, index);
  if (!st) return;  // broadcast already finished
  ChildSlot& s = st->route.slots[slot];
  if (s.done) return;
  if (ok) {
    // Accepted: arm a completion watchdog scaled to the subtree's depth;
    // if the child dies mid-relay its whole subtree is adopted when this
    // fires.
    const int depth = tree_depth_estimate(s.subtree().size() + 1, st->opts.tree_width);
    s.watchdog = net_.engine().schedule_after(
        st->route.watchdog_unit * (depth + 1),
        [this, id, index, pos, slot] { watchdog_fired(id, index, pos, slot); });
    return;
  }
  if (attempts_left > 1) {
    record_retry();
    attempt_child(*st, pos, slot, attempts_left - 1);
    return;
  }
  // Child unreachable: adopt its subtree directly.  fan_out may grow the
  // arena, so `s` is not used past this point.
  const Range subtree = s.subtree();
  if (subtree.size() > 0) {
    ++st->route.ctx[pos].agg_repairs;
    ++total_repairs_;
    fan_out(*st, pos, subtree);
  }
  child_finished(*st, pos, slot, /*unreachable=*/1, /*repairs=*/0);
}

void TreeBroadcaster::watchdog_fired(std::uint64_t id, std::uint32_t index, Pos pos,
                                     SlotIndex slot) {
  InFlight* st = find(id, index);
  if (!st) return;
  const ChildSlot& s = st->route.slots[slot];
  if (s.done) return;
  ++st->route.ctx[pos].agg_repairs;
  ++total_repairs_;
  const Range subtree = s.subtree();
  if (subtree.size() > 0) fan_out(*st, pos, subtree);
  child_finished(*st, pos, slot, /*unreachable=*/1, /*repairs=*/0);
}

void TreeBroadcaster::child_finished(InFlight& record, Pos pos, SlotIndex slot,
                                     std::uint32_t unreachable, int repairs) {
  ChildSlot& s = record.route.slots[slot];
  if (s.done) return;
  s.done = true;
  if (s.watchdog != sim::kInvalidEvent) {
    net_.engine().cancel(s.watchdog);
    s.watchdog = sim::kInvalidEvent;
  }
  NodeCtx& ctx = record.route.ctx[pos];
  ctx.agg_unreachable += unreachable;
  ctx.agg_repairs += repairs;
  assert(ctx.pending > 0);
  --ctx.pending;
  maybe_finish_node(record, pos);
}

void TreeBroadcaster::maybe_finish_node(InFlight& record, Pos pos) {
  NodeCtx& ctx = record.route.ctx[pos];
  if (ctx.pending > 0 || ctx.done_sent) return;
  ctx.done_sent = true;
  if (ctx.parent == kNoPos) {
    record.unreachable = ctx.agg_unreachable;
    record.repairs = ctx.agg_repairs;
    finish(record);
    return;
  }
  send_done(record, pos, ctx.parent, ctx.parent_slot, ctx.agg_unreachable, ctx.agg_repairs);
}

void TreeBroadcaster::send_done(InFlight& record, Pos from, Pos to, SlotIndex slot,
                                std::uint32_t unreachable, int repairs) {
  net::Message msg;
  msg.type = done_type_;
  msg.bytes = 64;
  msg.payload = DoneBody{record.id, record.index, to, slot, unreachable, repairs};
  net::send(net_, transport_, node_at(record, from), node_at(record, to), std::move(msg),
            record.opts.timeout);
}

void TreeBroadcaster::on_relay(NodeId self, const net::Message& msg) {
  const auto& body = msg.body<RelayBody>();
  InFlight* record = find(body.broadcast_id, body.record);
  if (!record) return;
  // The relay for subtree [b, e) went to the node at position b - 1.
  const Pos pos = body.begin - 1;
  NodeCtx& ctx = record->route.ctx[pos];
  if (!deliver(*record, self)) {
    // A repeat from this node's own parent (a wire duplicate, or the
    // parent's retry after a lost ack) is dropped: the relay it repeats
    // still covers the subtree, and the node's own completion closes the
    // parent's slot.  A relay from an adopting parent (a repair) is
    // acknowledged with an empty completion that closes the adopting
    // parent's slot, without re-relaying.
    if (body.parent != ctx.parent) send_done(*record, pos, body.parent, body.slot, 0, 0);
    return;
  }
  ctx.reset(body.parent, body.slot);
  fan_out(*record, pos, Range{body.begin, body.end});
  maybe_finish_node(*record, pos);
}

void TreeBroadcaster::on_done(NodeId, const net::Message& msg) {
  const auto& body = msg.body<DoneBody>();
  InFlight* record = find(body.broadcast_id, body.record);
  if (!record) return;
  // A parent's slots name distinct children and a retry reuses its slot,
  // so the named slot is the child's only one at this parent.  A slot
  // whose watchdog fired first (its subtree adopted) is already done, and
  // child_finished ignores it.
  if (record->route.slots[body.slot].child != msg.src) return;
  child_finished(*record, body.parent, body.slot, body.unreachable, body.repairs);
}

}  // namespace eslurm::comm
