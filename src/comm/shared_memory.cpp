#include "comm/shared_memory.hpp"

namespace eslurm::comm {

SharedMemoryBroadcaster::SharedMemoryBroadcaster(net::Network& network, std::string name)
    : Broadcaster(network, std::move(name)), rng_(0xE5E5E5E5ULL) {
  // Fetchers register no handler: the payload is counted at the sender.
  fetch_type_ = alloc_type_range(1);
}

void SharedMemoryBroadcaster::broadcast(NodeId root,
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

  // Publish cost: one write of the payload into the shared segment.
  const SimTime publish_done =
      net_.engine().now() +
      static_cast<SimTime>(static_cast<double>(state->opts.payload_bytes) /
                           net_.link_model().bandwidth_bytes_per_sec * 1e9) +
      net_.link_model().base_latency;

  state->outstanding = state->list->size();
  const std::uint64_t id = state->id;
  for (const NodeId target : *state->list) {
    // Each target polls the segment independently; its next poll tick is
    // uniform within the poll interval.
    const SimTime fetch_at =
        publish_done + static_cast<SimTime>(rng_.next_double() *
                                            static_cast<double>(state->opts.shm_poll_interval));
    net_.engine().schedule_at(fetch_at, [this, id, target] {
      const auto it = active_.find(id);
      if (it == active_.end()) return;
      State& st = *it->second;
      // The fetch is a one-sided read: a dead target simply never issues
      // it; nobody on the root side blocks.
      net::Message msg;
      msg.type = fetch_type_;
      msg.bytes = st.opts.payload_bytes;
      net_.send(st.root, target, std::move(msg), st.opts.timeout,
                [this, id, target](bool ok) {
                  const auto it2 = active_.find(id);
                  if (it2 == active_.end()) return;
                  State& st2 = *it2->second;
                  if (ok) {
                    ++st2.delivered;
                    if (delivery_hook_) delivery_hook_(target, st2.id);
                  } else {
                    ++st2.unreachable;
                  }
                  if (--st2.outstanding == 0) finish(st2);
                });
    });
  }
}

void SharedMemoryBroadcaster::finish(State& state) {
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
