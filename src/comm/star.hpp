// Star broadcast: the root contacts every target directly, the pattern of
// naive centralized RMs.  The root drives at most `star_slots` concurrent
// connections (a realistic dispatch thread pool); each dead target holds
// a slot for `retries * timeout`, which is why the structure collapses as
// the failure ratio grows (Fig. 8b).
#pragma once

#include "comm/broadcaster.hpp"

namespace eslurm::comm {

/// The star's routing field of a broadcast record: the root's dispatch
/// cursor over the target list.
struct StarRoute {
  std::size_t next = 0;  ///< next target index to start
  std::size_t in_flight = 0;
  std::size_t completed = 0;
};

class StarBroadcaster final : public PooledBroadcaster<StarRoute> {
 public:
  explicit StarBroadcaster(net::Network& network, std::string name = "star");

  void broadcast(NodeId root, std::shared_ptr<const std::vector<NodeId>> targets,
                 const BroadcastOptions& options, Callback done) override;
  using Broadcaster::broadcast;

 private:
  void pump(InFlight& record);
  /// `service_paid`: whether the root's per-target service time has
  /// already been spent for this attempt.
  void attempt(InFlight& record, std::size_t index, int attempts_left,
               bool service_paid = false);

  net::MessageType payload_type_;
};

}  // namespace eslurm::comm
