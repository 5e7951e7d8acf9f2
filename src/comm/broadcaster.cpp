#include "comm/broadcaster.hpp"

#include "telemetry/telemetry.hpp"

namespace eslurm::comm {

Broadcaster::Broadcaster(net::Network& network, std::string name)
    : net_(network), telemetry_(network.engine().telemetry()), name_(std::move(name)) {}

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

void Broadcaster::begin(Record& record, std::uint32_t index, NodeId root,
                        std::shared_ptr<const std::vector<NodeId>> list,
                        const BroadcastOptions& options, Callback done) {
  record.id = next_broadcast_id_++;
  record.index = index;
  record.root = root;
  record.list = std::move(list);
  record.opts = options;
  record.done = std::move(done);
  record.started = net_.engine().now();
  record.reached.assign(net_.node_count(), false);
  record.delivered = 0;
  record.unreachable = 0;
  record.repairs = 0;
}

bool Broadcaster::deliver(Record& record, NodeId node) {
  if (record.reached[node]) return false;
  record.reached[node] = true;
  ++record.delivered;
  if (delivery_hook_) delivery_hook_(node, record.id);
  return true;
}

void Broadcaster::finish(Record& record) {
  BroadcastResult result;
  result.broadcast_id = record.id;
  result.started = record.started;
  result.finished = net_.engine().now();
  result.targets = record.list->size();
  result.delivered = record.delivered;
  result.unreachable = record.unreachable;
  result.repairs = record.repairs;
  record_result(result);
  Callback done = std::move(record.done);
  record.list.reset();
  record.id = 0;
  recycle(record.index);
  if (done) done(result);
}

}  // namespace eslurm::comm
