// Shared-memory broadcast: the root publishes the message once to a
// high-capacity memory server (RDMA-style segment on the root in the
// paper's reproduction), and every target fetches it on its next poll
// tick.  Nobody ever waits on a dead node -- failed targets simply never
// fetch -- which is why the curve stays flat as the failure ratio grows
// (Fig. 8b).  The price is the poll latency floor on every broadcast.
#pragma once

#include "comm/broadcaster.hpp"

namespace eslurm::comm {

/// The shared-memory routing field of a broadcast record.
struct ShmRoute {
  std::size_t outstanding = 0;  ///< fetches not yet settled
};

class SharedMemoryBroadcaster final : public PooledBroadcaster<ShmRoute> {
 public:
  explicit SharedMemoryBroadcaster(net::Network& network, std::string name = "shm");

  void broadcast(NodeId root, std::shared_ptr<const std::vector<NodeId>> targets,
                 const BroadcastOptions& options, Callback done) override;
  using Broadcaster::broadcast;

 private:
  void fetch(std::uint64_t id, std::uint32_t slot, NodeId target);

  net::MessageType fetch_type_;
  Rng rng_;
};

}  // namespace eslurm::comm
