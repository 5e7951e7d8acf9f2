#include "comm/ring.hpp"

namespace eslurm::comm {

RingBroadcaster::RingBroadcaster(net::Network& network, std::string name)
    : PooledBroadcaster(network, std::move(name)) {
  hop_type_ = alloc_type_range(1);
  net_.register_handler(hop_type_,
                        [this](NodeId self, const net::Message& m) { on_hop(self, m); });
}

void RingBroadcaster::broadcast(NodeId root,
                                std::shared_ptr<const std::vector<NodeId>> targets,
                                const BroadcastOptions& options, Callback done) {
  InFlight& record = begin(root, std::move(targets), options, std::move(done));
  forward(record, root, 0);
}

void RingBroadcaster::forward(InFlight& record, NodeId from, std::size_t index) {
  if (index >= record.list->size()) {
    finish(record);
    return;
  }
  const NodeId next = (*record.list)[index];
  net::Message msg;
  msg.type = hop_type_;
  msg.bytes = record.opts.payload_bytes + 8 * (record.list->size() - index);
  msg.payload = HopBody{record.id, record.index, index + 1};
  net_.send(from, next, std::move(msg), record.opts.timeout,
            [this, id = record.id, slot = record.index, from, index](bool ok) {
              if (ok) return;  // receiver continues the chain
              InFlight* live = find(id, slot);
              if (!live) return;
              // Dead successor: skip it and try the next node ourselves.
              ++live->unreachable;
              forward(*live, from, index + 1);
            });
}

void RingBroadcaster::on_hop(NodeId self, const net::Message& msg) {
  const auto& body = msg.body<HopBody>();
  InFlight* record = find(body.broadcast_id, body.record);
  if (!record) return;
  deliver(*record, self);
  forward(*record, self, body.next_index);
}

}  // namespace eslurm::comm
