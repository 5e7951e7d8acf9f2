#include "comm/shared_memory.hpp"

namespace eslurm::comm {

SharedMemoryBroadcaster::SharedMemoryBroadcaster(net::Network& network, std::string name)
    : PooledBroadcaster(network, std::move(name)), rng_(0xE5E5E5E5ULL) {
  // Fetchers register no handler: the payload is counted at the sender.
  fetch_type_ = alloc_type_range(1);
}

void SharedMemoryBroadcaster::broadcast(NodeId root,
                                        std::shared_ptr<const std::vector<NodeId>> targets,
                                        const BroadcastOptions& options, Callback done) {
  InFlight& record = begin(root, std::move(targets), options, std::move(done));
  if (record.list->empty()) {
    finish(record);
    return;
  }

  // Publish cost: one write of the payload into the shared segment.
  const SimTime publish_done =
      net_.engine().now() +
      static_cast<SimTime>(static_cast<double>(record.opts.payload_bytes) /
                           net_.link_model().bandwidth_bytes_per_sec * 1e9) +
      net_.link_model().base_latency;

  record.route.outstanding = record.list->size();
  for (const NodeId target : *record.list) {
    // Each target polls the segment independently; its next poll tick is
    // uniform within the poll interval.
    const SimTime fetch_at =
        publish_done + static_cast<SimTime>(rng_.next_double() *
                                            static_cast<double>(record.opts.shm_poll_interval));
    net_.engine().schedule_at(fetch_at, [this, id = record.id, slot = record.index, target] {
      fetch(id, slot, target);
    });
  }
}

void SharedMemoryBroadcaster::fetch(std::uint64_t id, std::uint32_t slot, NodeId target) {
  const InFlight* record = find(id, slot);
  if (!record) return;
  // The fetch is a one-sided read: a dead target simply never issues it;
  // nobody on the root side blocks.
  net::Message msg;
  msg.type = fetch_type_;
  msg.bytes = record->opts.payload_bytes;
  net_.send(record->root, target, std::move(msg), record->opts.timeout,
            [this, id, slot, target](bool ok) {
              InFlight* live = find(id, slot);
              if (!live) return;
              if (ok) {
                deliver(*live, target);
              } else {
                ++live->unreachable;
              }
              if (--live->route.outstanding == 0) finish(*live);
            });
}

}  // namespace eslurm::comm
