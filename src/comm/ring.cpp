#include "comm/ring.hpp"

namespace eslurm::comm {

RingBroadcaster::RingBroadcaster(net::Network& network, std::string name)
    : Broadcaster(network, std::move(name)) {
  hop_type_ = alloc_type_range(1);
  net_.register_handler(hop_type_,
                        [this](NodeId self, const net::Message& m) { on_hop(self, m); });
}

void RingBroadcaster::broadcast(NodeId root,
                                std::shared_ptr<const std::vector<NodeId>> targets,
                                const BroadcastOptions& options, Callback done) {
  auto state = std::make_shared<State>();
  state->id = next_broadcast_id_++;
  state->root = root;
  state->list = std::move(targets);
  state->opts = options;
  state->done = std::move(done);
  state->started = net_.engine().now();
  active_.emplace(state->id, state);
  if (state->list->empty()) {
    finish(*state);
    return;
  }
  forward(*state, root, 0);
}

void RingBroadcaster::forward(State& state, NodeId from, std::size_t index) {
  if (index >= state.list->size()) {
    finish(state);
    return;
  }
  const std::uint64_t id = state.id;
  const NodeId next = (*state.list)[index];
  net::Message msg;
  msg.type = hop_type_;
  msg.bytes = state.opts.payload_bytes + 8 * (state.list->size() - index);
  msg.payload = HopBody{id, index + 1};
  net_.send(from, next, std::move(msg), state.opts.timeout,
            [this, id, from, index](bool ok) {
              const auto it = active_.find(id);
              if (it == active_.end()) return;
              State& st = *it->second;
              if (ok) return;  // receiver continues the chain
              // Dead successor: skip it and try the next node ourselves.
              ++st.unreachable;
              forward(st, from, index + 1);
            });
}

void RingBroadcaster::on_hop(NodeId self, const net::Message& msg) {
  const auto& body = msg.body<HopBody>();
  const auto it = active_.find(body.broadcast_id);
  if (it == active_.end()) return;
  State& state = *it->second;
  ++state.delivered;
  if (delivery_hook_) delivery_hook_(self, state.id);
  forward(state, self, body.next_index);
}

void RingBroadcaster::finish(State& state) {
  BroadcastResult result;
  result.broadcast_id = state.id;
  result.started = state.started;
  result.finished = net_.engine().now();
  result.targets = state.list->size();
  result.delivered = state.delivered;
  result.unreachable = state.unreachable;
  record_result(result);
  const std::uint64_t id = state.id;
  if (state.done) state.done(result);
  active_.erase(id);
}

}  // namespace eslurm::comm
