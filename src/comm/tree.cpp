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
  // Grow only: a recycled record keeps every position's slot capacity.
  const std::size_t n = record.list->size();
  std::vector<NodeCtx>& ctx = record.route.ctx;
  if (ctx.size() < n + 1) ctx.resize(n + 1);

  const auto root_pos = static_cast<Pos>(n);
  ctx[root_pos].reset(kNoPos);
  fan_out(record, root_pos, Range{0, n});
  maybe_finish_node(record, root_pos);
}

void TreeBroadcaster::fan_out(InFlight& record, Pos pos, Range range) {
  // Create every slot before issuing any send so `pending` can never dip
  // to zero while work remains.
  NodeCtx& ctx = record.route.ctx[pos];
  const std::size_t first_slot = ctx.slots.size();
  for_each_group(range.begin, range.end, record.opts.tree_width, [&](Range group) {
    ctx.slots.push_back(ChildSlot{(*record.list)[group.begin],
                                  Range{group.begin + 1, group.end}});
    ++ctx.pending;
  });
  const std::size_t end_slot = ctx.slots.size();
  for (std::size_t i = first_slot; i < end_slot; ++i)
    attempt_child(record, pos, static_cast<std::uint32_t>(i), record.opts.retries);
}

void TreeBroadcaster::attempt_child(InFlight& record, Pos pos, std::uint32_t slot_index,
                                    int attempts_left) {
  const ChildSlot& slot = record.route.ctx[pos].slots[slot_index];
  net::Message msg;
  msg.type = relay_type_;
  // The relay carries the payload plus the serialized subtree list.
  msg.bytes = record.opts.payload_bytes + 8 * slot.subtree.size();
  msg.payload = RelayBody{record.id, record.index, pos, slot.subtree};
  net::send(net_, transport_, node_at(record, pos), slot.child, std::move(msg),
            record.opts.timeout,
            [this, id = record.id, index = record.index, pos, slot_index,
             attempts_left](bool ok) {
              child_accepted(id, index, pos, slot_index, attempts_left, ok);
            });
}

void TreeBroadcaster::child_accepted(std::uint64_t id, std::uint32_t index, Pos pos,
                                     std::uint32_t slot_index, int attempts_left,
                                     bool ok) {
  InFlight* st = find(id, index);
  if (!st) return;  // broadcast already finished
  NodeCtx& c = st->route.ctx[pos];
  ChildSlot& s = c.slots[slot_index];
  if (s.done) return;
  if (ok) {
    // Accepted: arm a completion watchdog scaled to the subtree's depth;
    // if the child dies mid-relay its whole subtree is adopted when this
    // fires.
    const int depth = tree_depth_estimate(s.subtree.size() + 1, st->opts.tree_width);
    // contact_budget covers the transport's retransmit schedule (==
    // timeout raw), so a watchdog never fires while a descendant is still
    // legitimately retrying.
    const SimTime deadline = net::contact_budget(net_, transport_, st->opts.timeout) *
                             (st->opts.retries + 1) * (depth + 1);
    s.watchdog = net_.engine().schedule_after(
        deadline, [this, id, index, pos, slot_index] {
          watchdog_fired(id, index, pos, slot_index);
        });
    return;
  }
  if (attempts_left > 1) {
    record_retry();
    attempt_child(*st, pos, slot_index, attempts_left - 1);
    return;
  }
  // Child unreachable: adopt its subtree directly.  fan_out may grow
  // c.slots, so `s` is not used past this point.
  const Range subtree = s.subtree;
  if (subtree.size() > 0) {
    ++c.agg_repairs;
    ++total_repairs_;
    fan_out(*st, pos, subtree);
  }
  child_finished(*st, pos, slot_index, /*unreachable=*/1, /*repairs=*/0);
}

void TreeBroadcaster::watchdog_fired(std::uint64_t id, std::uint32_t index, Pos pos,
                                     std::uint32_t slot_index) {
  InFlight* st = find(id, index);
  if (!st) return;
  NodeCtx& c = st->route.ctx[pos];
  const ChildSlot& s = c.slots[slot_index];
  if (s.done) return;
  ++c.agg_repairs;
  ++total_repairs_;
  const Range subtree = s.subtree;
  if (subtree.size() > 0) fan_out(*st, pos, subtree);
  child_finished(*st, pos, slot_index, /*unreachable=*/1, /*repairs=*/0);
}

void TreeBroadcaster::child_finished(InFlight& record, Pos pos, std::size_t slot_index,
                                     std::size_t unreachable, int repairs) {
  NodeCtx& ctx = record.route.ctx[pos];
  ChildSlot& slot = ctx.slots[slot_index];
  if (slot.done) return;
  slot.done = true;
  if (slot.watchdog != sim::kInvalidEvent) {
    net_.engine().cancel(slot.watchdog);
    slot.watchdog = sim::kInvalidEvent;
  }
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
  send_done(record, pos, ctx.parent, ctx.agg_unreachable, ctx.agg_repairs);
}

void TreeBroadcaster::send_done(InFlight& record, Pos from, Pos to, std::size_t unreachable,
                                int repairs) {
  net::Message msg;
  msg.type = done_type_;
  msg.bytes = 64;
  msg.payload = DoneBody{record.id, record.index, to, unreachable, repairs};
  net::send(net_, transport_, node_at(record, from), node_at(record, to), std::move(msg),
            record.opts.timeout);
}

void TreeBroadcaster::on_relay(NodeId self, const net::Message& msg) {
  const auto& body = msg.body<RelayBody>();
  InFlight* record = find(body.broadcast_id, body.record);
  if (!record) return;
  // The relay for subtree [b, e) went to the node at position b - 1.
  const auto pos = static_cast<Pos>(body.subtree.begin - 1);
  NodeCtx& ctx = record->route.ctx[pos];
  if (!deliver(*record, self)) {
    // A repeat from this node's own parent (a wire duplicate, or the
    // parent's retry after a lost ack) is dropped: the relay it repeats
    // still covers the subtree, and the node's own completion closes the
    // parent's slot.  A relay from an adopting parent (a repair) is
    // acknowledged with an empty completion, without re-relaying.
    if (body.parent != ctx.parent) send_done(*record, pos, body.parent, 0, 0);
    return;
  }
  ctx.reset(body.parent);
  fan_out(*record, pos, body.subtree);
  maybe_finish_node(*record, pos);
}

void TreeBroadcaster::on_done(NodeId, const net::Message& msg) {
  const auto& body = msg.body<DoneBody>();
  InFlight* record = find(body.broadcast_id, body.record);
  if (!record) return;
  NodeCtx& ctx = record->route.ctx[body.parent];
  // Match the first unfinished slot for this child.
  for (std::size_t i = 0; i < ctx.slots.size(); ++i) {
    if (!ctx.slots[i].done && ctx.slots[i].child == msg.src) {
      child_finished(*record, body.parent, i, body.unreachable, body.repairs);
      return;
    }
  }
}

}  // namespace eslurm::comm
