// Ring broadcast: the message hops from node to node in list order.  A
// dead successor is skipped after one connection timeout (the successor
// list gives an immediate fallback, so the sender does not burn all
// retries on a host that is clearly down).  Total latency is inherently
// linear in the node count, and every failure adds a full timeout to the
// chain -- the worst curve in Fig. 8b.
#pragma once

#include "comm/broadcaster.hpp"

namespace eslurm::comm {

class RingBroadcaster final : public PooledBroadcaster<> {
 public:
  explicit RingBroadcaster(net::Network& network, std::string name = "ring");

  void broadcast(NodeId root, std::shared_ptr<const std::vector<NodeId>> targets,
                 const BroadcastOptions& options, Callback done) override;
  using Broadcaster::broadcast;

 private:
  struct HopBody {
    std::uint64_t broadcast_id;
    std::uint32_t record;
    std::size_t next_index;  ///< index the receiver should forward to
  };

  /// Forwards from `from` to list[index]; skips dead successors.
  void forward(InFlight& record, NodeId from, std::size_t index);
  void on_hop(NodeId self, const net::Message& msg);

  net::MessageType hop_type_;
};

}  // namespace eslurm::comm
