#include "comm/star.hpp"

namespace eslurm::comm {

StarBroadcaster::StarBroadcaster(net::Network& network, std::string name)
    : PooledBroadcaster(network, std::move(name)) {
  // Targets register no handler: delivery is counted via the sender-side
  // completion.
  payload_type_ = alloc_type_range(1);
}

void StarBroadcaster::broadcast(NodeId root,
                                std::shared_ptr<const std::vector<NodeId>> targets,
                                const BroadcastOptions& options, Callback done) {
  InFlight& record = begin(root, std::move(targets), options, std::move(done));
  if (record.list->empty()) {
    finish(record);
    return;
  }
  record.route = StarRoute{};
  pump(record);
}

void StarBroadcaster::pump(InFlight& record) {
  StarRoute& route = record.route;
  while (route.in_flight < record.opts.star_slots && route.next < record.list->size()) {
    ++route.in_flight;
    attempt(record, route.next++, record.opts.retries);
  }
}

void StarBroadcaster::attempt(InFlight& record, std::size_t index, int attempts_left,
                              bool service_paid) {
  const std::uint64_t id = record.id;
  const std::uint32_t slot = record.index;
  if (record.opts.root_service_time > 0 && !service_paid) {
    // Root-side session setup occupies this slot before the wire send.
    net_.engine().schedule_after(record.opts.root_service_time,
                                 [this, id, slot, index, attempts_left] {
                                   InFlight* live = find(id, slot);
                                   if (!live) return;
                                   attempt(*live, index, attempts_left,
                                           /*service_paid=*/true);
                                 });
    return;
  }
  const NodeId target = (*record.list)[index];
  net::Message msg;
  msg.type = payload_type_;
  msg.bytes = record.opts.payload_bytes;
  net_.send(record.root, target, std::move(msg), record.opts.timeout,
            [this, id, slot, index, target, attempts_left](bool ok) {
              InFlight* live = find(id, slot);
              if (!live) return;
              if (!ok && attempts_left > 1) {
                record_retry();
                attempt(*live, index, attempts_left - 1);  // slot stays occupied
                return;
              }
              if (ok) {
                deliver(*live, target);
              } else {
                ++live->unreachable;
              }
              StarRoute& route = live->route;
              ++route.completed;
              --route.in_flight;
              if (route.completed == live->list->size()) {
                finish(*live);
              } else {
                pump(*live);
              }
            });
}

}  // namespace eslurm::comm
