// Broadcast-structure interface (Section IV / Fig. 8b of the paper).
//
// A Broadcaster delivers one control message (job-load, job-terminate,
// heartbeat ...) from a root node to a set of target nodes over the
// simulated network, tolerating target failures.  Five implementations
// mirror the structures the paper evaluates: ring, star, shared-memory,
// k-ary tree, and the FP-Tree (failure-prediction-rearranged tree).
//
// Failure semantics shared by all implementations: a send to a dead node
// is detected only after `timeout`; `retries` connection attempts are
// made before a peer is declared unreachable (the paper sets 3).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/transport.hpp"

namespace eslurm::comm {

using net::NodeId;

/// Message-type space reserved for communication structures (100-199).
/// Each Broadcaster instance takes a distinct stride (allocated from its
/// network) so several structures can coexist on the same nodes.
inline constexpr net::MessageType kCommTypeBase = net::kDynamicTypeBase;

struct BroadcastOptions {
  std::size_t payload_bytes = 512;  ///< control messages are small
  SimTime timeout = seconds(1);     ///< dead-peer detection threshold
  int retries = 3;                  ///< connection attempts per peer
  int tree_width = 50;              ///< k-ary fan-out (Slurm default 50)
  std::size_t star_slots = 16;      ///< concurrent connections at a star root
  /// Root-side service time per target (star only): session setup /
  /// fork-exec work a master performs per contacted node.  This is what
  /// makes sequential-dispatch RMs collapse as job size grows (Fig. 7f).
  SimTime root_service_time = 0;
  SimTime shm_poll_interval = seconds(2);  ///< shared-memory fetch cadence
};

struct BroadcastResult {
  std::uint64_t broadcast_id = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::size_t targets = 0;      ///< requested target count
  std::size_t delivered = 0;    ///< distinct targets that got the payload
  std::size_t unreachable = 0;  ///< targets declared dead
  int repairs = 0;              ///< tree re-parenting events

  SimTime elapsed() const { return finished - started; }
};

class Broadcaster {
 public:
  using Callback = std::function<void(const BroadcastResult&)>;
  /// Called once per target node when the payload reaches it.
  using DeliveryHook = std::function<void(NodeId node, std::uint64_t broadcast_id)>;

  /// With a `transport`, all control traffic (relay + completion
  /// messages) is sent through the reliable channel: transient message
  /// loss is retried below the tree's own retry logic, and a retransmitted
  /// or duplicated relay is suppressed before it reaches the forwarding
  /// handlers.  The transport must outlive the broadcaster; nullptr
  /// (default) keeps raw Network::send semantics and bit-identical
  /// behaviour.
  explicit Broadcaster(net::Network& network, std::string name,
                       net::ReliableTransport* transport = nullptr);
  /// Unregisters every handler of this instance's message-type range, so
  /// a message of a dead broadcaster's type is received but handled by
  /// nothing.  The network must outlive the broadcaster.
  virtual ~Broadcaster();
  Broadcaster(const Broadcaster&) = delete;
  Broadcaster& operator=(const Broadcaster&) = delete;

  /// Starts a broadcast; the callback fires exactly once, when every
  /// target has been delivered or declared unreachable.  `targets` must
  /// not contain `root`.
  virtual void broadcast(NodeId root, std::shared_ptr<const std::vector<NodeId>> targets,
                         const BroadcastOptions& options, Callback done) = 0;

  /// Convenience overload taking the target list by value.
  void broadcast(NodeId root, std::vector<NodeId> targets,
                 const BroadcastOptions& options, Callback done);

  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  const std::string& name() const { return name_; }
  net::Network& network() { return net_; }
  net::ReliableTransport* transport() { return transport_; }

 protected:
  /// Allocates this instance's private message-type range (once per
  /// instance); the destructor unregisters it.
  net::MessageType alloc_type_range(int width);

  /// Send routed through the reliable transport when one is attached,
  /// raw Network otherwise.  Implementations use it for their control
  /// traffic so one construction argument flips the whole structure
  /// between lossy and reliable delivery; their handlers register on the
  /// network either way.
  void relay_send(NodeId from, NodeId to, net::Message msg, SimTime timeout,
                  net::SendCallback on_complete = {});

  /// Worst-case duration of one relay_send against an unresponsive peer:
  /// `timeout` raw, the transport's full retransmit schedule otherwise.
  /// Watchdogs must scale with this or they fire mid-retransmit.
  SimTime contact_budget(SimTime timeout) const;

  /// Telemetry tap: every implementation calls this once per finished
  /// broadcast (latency histogram + counters labeled by structure name,
  /// and a trace span covering the broadcast).  No-op when telemetry is
  /// disabled.
  void record_result(const BroadcastResult& result);

  /// Telemetry tap for a failed send attempt that will be retried.
  void record_retry();

  /// Records a delivery in the per-broadcast bitmap (idempotent) and
  /// fires the delivery hook for first-time deliveries.  Returns true if
  /// this was the first delivery to that node.
  bool mark_delivered(std::uint64_t broadcast_id, std::vector<bool>& bitmap, NodeId node);

  net::Network& net_;
  /// The world's telemetry context (via the network's engine); nullptr
  /// when telemetry is off.  Cached at construction like every other
  /// instrumented subsystem.
  telemetry::Telemetry* telemetry_;
  net::ReliableTransport* transport_ = nullptr;
  std::string name_;
  DeliveryHook delivery_hook_;
  std::uint64_t next_broadcast_id_ = 1;

 private:
  net::MessageType first_type_ = 0;
  int type_count_ = 0;
};

}  // namespace eslurm::comm
