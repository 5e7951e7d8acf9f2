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
//
// Lifecycle, shared by all implementations: the broadcaster owns the
// record of every in-flight broadcast.  A record is one slot of a
// recycled pool (util::SlabPool, held by PooledBroadcaster<Route>, the
// base of every structure): the common header (Record) followed by the
// structure's own routing fields (Route).  begin() takes a slot and
// stamps a fresh id; messages and timers name a broadcast by (id, slot),
// and find() returns nullptr once the slot's id has changed, so a late
// callback never touches a recycled record.  deliver() is the one
// delivery rule: a node is counted, and the delivery hook fires, once
// per broadcast.  finish() builds the BroadcastResult, records telemetry
// and recycles the slot, and only then calls the user callback -- which
// may start the next broadcast in the very same slot.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/pool.hpp"

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
  /// Children a parent gave up on: failed sends (after every retry) and
  /// completion watchdogs that fired.  A live child whose completion
  /// arrives after its watchdog is counted too, although it got the
  /// payload, so `delivered + unreachable` can exceed `targets`; the
  /// missed targets are `targets - delivered`, not this count.
  std::size_t unreachable = 0;
  int repairs = 0;              ///< subtree adoptions (tree structures)

  SimTime elapsed() const { return finished - started; }
};

class Broadcaster {
 public:
  using Callback = std::function<void(const BroadcastResult&)>;
  /// Called once per target node when the payload reaches it.
  using DeliveryHook = std::function<void(NodeId node, std::uint64_t broadcast_id)>;

  Broadcaster(net::Network& network, std::string name);
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

 protected:
  /// Header of one in-flight broadcast: what every structure tracks.
  struct Record {
    std::uint64_t id = 0;     ///< 0 while the slot is free; ids start at 1
    std::uint32_t index = 0;  ///< this record's pool slot
    NodeId root = net::kNoNode;
    std::shared_ptr<const std::vector<NodeId>> list;
    BroadcastOptions opts;
    Callback done;
    SimTime started = 0;
    std::vector<bool> reached;  ///< indexed by node id
    std::size_t delivered = 0;
    std::size_t unreachable = 0;
    int repairs = 0;
  };

  /// Allocates this instance's private message-type range (once per
  /// instance); the destructor unregisters it.
  net::MessageType alloc_type_range(int width);

  /// Stamps a freshly acquired slot's header with a new id.  A recycled
  /// slot keeps its bitmap capacity, so a steady-state begin allocates
  /// nothing.
  void begin(Record& record, std::uint32_t index, NodeId root,
             std::shared_ptr<const std::vector<NodeId>> list,
             const BroadcastOptions& options, Callback done);

  /// The delivery rule: counts `node` and fires the delivery hook the
  /// first time it is reached in this broadcast.  Returns false (and does
  /// nothing) on a repeat.
  bool deliver(Record& record, NodeId node);

  /// Ends the broadcast: builds the result from the header, records
  /// telemetry, recycles the slot, then calls the user callback.
  void finish(Record& record);

  /// Telemetry tap for a failed send attempt that will be retried.
  void record_retry();

  net::Network& net_;
  /// The world's telemetry context (via the network's engine); nullptr
  /// when telemetry is off.  Cached at construction like every other
  /// instrumented subsystem.
  telemetry::Telemetry* telemetry_;

 private:
  /// Returns a finished record's slot to the pool that holds it.
  virtual void recycle(std::uint32_t index) = 0;
  /// Latency histogram + counters labeled by structure name, and a trace
  /// span covering the broadcast.  No-op when telemetry is disabled.
  void record_result(const BroadcastResult& result);

  std::string name_;
  DeliveryHook delivery_hook_;
  std::uint64_t next_broadcast_id_ = 1;
  net::MessageType first_type_ = 0;
  int type_count_ = 0;
};

/// Routing fields of a structure that needs none beyond the header.
struct NoRoute {};

/// A Broadcaster whose records carry the structure's routing fields
/// `Route` in the same pool slot, so a relay or completion finds both
/// with one lookup.
template <typename Route = NoRoute>
class PooledBroadcaster : public Broadcaster {
 protected:
  using Broadcaster::Broadcaster;

  struct InFlight : Record {
    Route route;  ///< stale on a recycled slot: each structure resets it
  };

  /// Acquires a slot and begins a broadcast in it.
  InFlight& begin(NodeId root, std::shared_ptr<const std::vector<NodeId>> list,
                  const BroadcastOptions& options, Callback done) {
    const std::uint32_t index = records_.acquire();
    InFlight& record = records_[index];
    Broadcaster::begin(record, index, root, std::move(list), options, std::move(done));
    return record;
  }

  /// The live broadcast `id` in slot `index`, or nullptr if it finished.
  InFlight* find(std::uint64_t id, std::uint32_t index) {
    InFlight& record = records_[index];
    return record.id == id ? &record : nullptr;
  }

 private:
  void recycle(std::uint32_t index) final { records_.release(index); }

  /// Stable storage: a delivery hook may start another broadcast while a
  /// handler still holds its record.
  util::SlabPool<InFlight> records_;
};

}  // namespace eslurm::comm
