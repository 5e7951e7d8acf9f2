#include "comm/broadcaster.hpp"

#include "telemetry/telemetry.hpp"

namespace eslurm::comm {

Broadcaster::Broadcaster(net::Network& network, std::string name,
                         net::ReliableTransport* transport)
    : net_(network),
      telemetry_(network.engine().telemetry()),
      transport_(transport),
      name_(std::move(name)) {}

Broadcaster::~Broadcaster() {
  for (int i = 0; i < type_count_; ++i) net_.unregister_handler(first_type_ + i);
}

net::MessageType Broadcaster::alloc_type_range(int width) {
  // Per-network allocation keeps type assignment deterministic in
  // construction order even with several worlds in one process.
  first_type_ = net_.alloc_message_types(width);
  type_count_ = width;
  return first_type_;
}

void Broadcaster::relay_send(NodeId from, NodeId to, net::Message msg,
                             SimTime timeout, net::SendCallback on_complete) {
  if (transport_) {
    transport_->send(from, to, std::move(msg), timeout, std::move(on_complete));
  } else {
    net_.send(from, to, std::move(msg), timeout, std::move(on_complete));
  }
}

SimTime Broadcaster::contact_budget(SimTime timeout) const {
  if (timeout <= 0) timeout = net_.link_model().default_timeout;
  if (!transport_) return timeout;
  return net::worst_case_send_time(transport_->options(), timeout);
}

void Broadcaster::broadcast(NodeId root, std::vector<NodeId> targets,
                            const BroadcastOptions& options, Callback done) {
  broadcast(root, std::make_shared<const std::vector<NodeId>>(std::move(targets)),
            options, std::move(done));
}

void Broadcaster::record_result(const BroadcastResult& result) {
  auto* t = telemetry_;
  if (!t) return;
  t->metrics.counter("comm.broadcasts", {{"structure", name_}}).inc();
  t->metrics.histogram("comm.broadcast_seconds", {{"structure", name_}})
      .observe(to_seconds(result.elapsed()));
  if (result.unreachable > 0)
    t->metrics.counter("comm.unreachable", {{"structure", name_}})
        .inc(static_cast<double>(result.unreachable));
  if (result.repairs > 0)
    t->metrics.counter("comm.repairs", {{"structure", name_}})
        .inc(static_cast<double>(result.repairs));
  t->tracer.complete(
      "broadcast:" + name_, "comm", result.started, result.elapsed(),
      {{"targets", static_cast<double>(result.targets)},
       {"delivered", static_cast<double>(result.delivered)},
       {"unreachable", static_cast<double>(result.unreachable)},
       {"repairs", static_cast<double>(result.repairs)}});
}

void Broadcaster::record_retry() {
  if (auto* t = telemetry_)
    t->metrics.counter("comm.send_retries", {{"structure", name_}}).inc();
}

bool Broadcaster::mark_delivered(std::uint64_t broadcast_id, std::vector<bool>& bitmap,
                                 NodeId node) {
  if (bitmap[node]) return false;
  bitmap[node] = true;
  if (delivery_hook_) delivery_hook_(node, broadcast_id);
  return true;
}

}  // namespace eslurm::comm
