#include "comm/star.hpp"

namespace eslurm::comm {

StarBroadcaster::StarBroadcaster(net::Network& network, std::string name)
    : Broadcaster(network, std::move(name)) {
  // Targets register no handler: delivery is counted via the sender-side
  // completion, and the hook fires through mark_delivered.
  payload_type_ = alloc_type_range(1);
}

void StarBroadcaster::broadcast(NodeId root,
                                std::shared_ptr<const std::vector<NodeId>> targets,
                                const BroadcastOptions& options, Callback done) {
  auto state = std::make_shared<State>();
  state->id = next_broadcast_id_++;
  state->root = root;
  state->list = std::move(targets);
  state->opts = options;
  state->done = std::move(done);
  state->started = net_.engine().now();
  state->delivered.assign(net_.node_count(), false);
  active_.emplace(state->id, state);
  pump(*state);
  if (state->list->empty()) finish(*state);
}

void StarBroadcaster::pump(State& state) {
  while (state.in_flight < state.opts.star_slots && state.next < state.list->size()) {
    ++state.in_flight;
    attempt(state, state.next++, state.opts.retries);
  }
}

void StarBroadcaster::attempt(State& state, std::size_t index, int attempts_left,
                              bool service_paid) {
  const std::uint64_t id = state.id;
  if (state.opts.root_service_time > 0 && !service_paid) {
    // Root-side session setup occupies this slot before the wire send.
    net_.engine().schedule_after(state.opts.root_service_time,
                                 [this, id, index, attempts_left] {
                                   const auto it = active_.find(id);
                                   if (it == active_.end()) return;
                                   attempt(*it->second, index, attempts_left,
                                           /*service_paid=*/true);
                                 });
    return;
  }
  const NodeId target = (*state.list)[index];
  net::Message msg;
  msg.type = payload_type_;
  msg.bytes = state.opts.payload_bytes;
  net_.send(state.root, target, std::move(msg), state.opts.timeout,
            [this, id, index, target, attempts_left](bool ok) {
              const auto it = active_.find(id);
              if (it == active_.end()) return;
              State& st = *it->second;
              if (!ok && attempts_left > 1) {
                record_retry();
                attempt(st, index, attempts_left - 1);  // slot stays occupied
                return;
              }
              if (ok) {
                mark_delivered(st.id, st.delivered, target);
              } else {
                ++st.unreachable;
              }
              ++st.completed;
              --st.in_flight;
              if (st.completed == st.list->size()) {
                finish(st);
              } else {
                pump(st);
              }
            });
}

void StarBroadcaster::finish(State& state) {
  BroadcastResult result;
  result.broadcast_id = state.id;
  result.started = state.started;
  result.finished = net_.engine().now();
  result.targets = state.list->size();
  result.delivered = state.list->size() - state.unreachable;
  result.unreachable = state.unreachable;
  record_result(result);
  const std::uint64_t id = state.id;
  if (state.done) state.done(result);
  active_.erase(id);
}

}  // namespace eslurm::comm
