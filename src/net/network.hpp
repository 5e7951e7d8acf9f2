// Simulated cluster interconnect.
//
// Models the properties that matter for RM-communication scalability:
//   * per-link latency + serialization (bytes / bandwidth) + jitter;
//   * per-node *send* and *receive* serialization: a node handles one
//     message at a time, so a master that fans out to 20K slaves pays the
//     fan-out serially while a tree spreads it over the relay nodes --
//     this is the first-order effect behind Fig. 7/8/9 of the paper;
//   * TCP-connection (socket) accounting per node, sampled as a time
//     series for the nodes under observation (master / satellites);
//   * delivery to a failed node: the sender only learns about it after a
//     configurable timeout, exactly like a TCP connect/send timing out.
//
// Reliability semantics: send() invokes `on_complete(true)` once the
// receiver has accepted and processed the message (ack included), or
// `on_complete(false)` after `timeout` when the receiver is dead (or dies
// before processing).  By default there is no packet loss between live
// nodes; HPC interconnects are lossless at this abstraction level.  An
// optional ChaosInjector (set_chaos) changes that: it can drop, duplicate
// or delay individual message/ack legs and cut timed partitions -- see
// net/chaos.hpp.  A dropped ack means the receiver processed the message
// but the sender still observes a failure, which is exactly the ambiguity
// the reliable transport (net/transport.hpp) resolves: a reliable send's
// record remembers that it was processed, and dispatch suppresses any
// later delivery of it (a retransmit or a duplicated leg).
#pragma once

#include <functional>
#include <vector>

#include "net/message.hpp"
#include "sim/engine.hpp"
#include "util/inplace_function.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace eslurm::telemetry {
class Counter;
}  // namespace eslurm::telemetry

namespace eslurm::net {

class ChaosInjector;
class ReliableTransport;

struct LinkModel {
  SimTime base_latency = microseconds(25);       ///< propagation + stack
  double bandwidth_bytes_per_sec = 3.125e9;      ///< 25 Gbps link
  SimTime connection_setup = microseconds(60);   ///< TCP handshake cost
  SimTime recv_processing = microseconds(15);    ///< per-message receiver CPU
  SimTime send_processing = microseconds(10);    ///< per-message sender CPU
  double jitter_frac = 0.10;                     ///< multiplicative jitter on latency
  SimTime default_timeout = seconds(1);          ///< dead-peer detection
};

/// Invoked when a message is delivered to a node (after receive
/// serialization).  One handler serves a message type on every node and
/// learns the receiving node as `self`: a type belongs to one daemon role
/// (the master, a satellite, or the relay code every node runs), and a
/// handler that serves only some nodes branches on `self`.
using Handler = std::function<void(NodeId self, const Message&)>;

/// Inline capture budget of a send-completion callback: the tree's and
/// the RM's {this, ids...} captures fit, so a steady-state send
/// allocates nothing; larger captures take one heap allocation.
inline constexpr std::size_t kSendCallbackInlineBytes = 48;

/// Completion callback of a send: ok=true means processed by the peer.
/// Move-only and invoked at most once, like an engine event.
using SendCallback = util::InplaceFunction<void(bool ok), kSendCallbackInlineBytes>;

class Network {
  /// Opens, launches and detaches the ops of its reliable sends.
  friend class ReliableTransport;

 public:
  Network(sim::Engine& engine, std::size_t node_count, LinkModel model, Rng rng);

  sim::Engine& engine() { return engine_; }
  const LinkModel& link_model() const { return model_; }
  std::size_t node_count() const { return hot_.size(); }

  /// The liveness oracle (normally Cluster::alive).  Defaults to all-up.
  void set_liveness(std::function<bool(NodeId)> alive);

  /// Attaches a chaos injector: every message and ack leg consults it for
  /// drop/duplicate/delay/partition verdicts.  The injector must outlive
  /// the network; nullptr restores lossless behaviour.
  void set_chaos(ChaosInjector* chaos) { chaos_ = chaos; }
  ChaosInjector* chaos() const { return chaos_; }

  /// Registers/replaces the handler of `type`.  Throws std::out_of_range
  /// on a negative type.  Reliable sends (ReliableTransport::send) reach
  /// the same handler, at most once per send.
  void register_handler(MessageType type, Handler handler);
  void unregister_handler(MessageType type);

  /// Allocates a contiguous private message-type range of `width` types
  /// (communication structures use this).  The allocator is per-network
  /// state -- not process-wide -- so identical worlds built in the same
  /// process (sequentially or on concurrent sweep threads) assign
  /// identical type numbers in construction order.
  MessageType alloc_message_types(int width) {
    const MessageType base = next_dynamic_type_;
    next_dynamic_type_ += width;
    return base;
  }

  /// Per-node receive-processing override (0 = use the link model's
  /// default).  A centralized RM master pays a full RPC-handling cost
  /// (global locks, protocol work) per inbound message -- the first-order
  /// reason it saturates at scale.
  void set_recv_processing(NodeId node, SimTime per_message);
  SimTime recv_processing(NodeId node) const;

  /// Sends a message: one attempt.  `timeout` <= 0 uses the model
  /// default.  The callback may be empty for fire-and-forget traffic.
  /// (ReliableTransport::send opens the same kind of op, owned by the
  /// transport, which relaunches failed attempts.)
  void send(NodeId from, NodeId to, Message msg, SimTime timeout = 0,
            SendCallback on_complete = {});

  /// --- socket / traffic accounting -------------------------------------
  int open_sockets(NodeId node) const { return hot_[node].open_sockets; }

  /// Starts recording this node's concurrent-socket count as a running
  /// summary (one record per change, plus one now).  Only watched nodes
  /// pay the memory; watching a node again only records the current count.
  void watch_sockets(NodeId node);
  /// The node's socket summary; empty for a node that is not watched.
  /// The reference is valid until another node is watched or overridden.
  const TimeSeries& socket_series(NodeId node) const;

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t failed_sends() const { return failed_sends_; }

  /// Sends whose exchange (message legs + ack/timeout) is still pending,
  /// including reliable sends waiting out a retransmit backoff.
  std::size_t in_flight_sends() const { return send_ops_.in_use(); }
  /// High-water mark of concurrently pending sends; pool slots are
  /// recycled, so steady-state traffic allocates nothing once this
  /// plateaus.
  std::size_t send_op_pool_capacity() const { return send_ops_.capacity(); }

  /// Messages processed by a given node (receive side); used to charge
  /// daemon CPU time in the RM resource accountant.
  std::uint64_t messages_received(NodeId node) const { return hot_[node].received; }
  std::uint64_t messages_sent(NodeId node) const { return hot_[node].sent; }

 private:
  /// Everything a message touches on a node, packed so the per-node
  /// table stays dense: send, arrival, delivery and completion each read
  /// one 40-byte record.
  struct NodeHot {
    SimTime send_busy_until = 0;
    SimTime recv_busy_until = 0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    int open_sockets = 0;
    std::uint32_t cold = 0;  ///< 1 + the node's index in cold_; 0 = none
  };
  static_assert(sizeof(NodeHot) <= 40, "NodeHot must stay one dense record");
  /// State only watched or overridden nodes have: a handful of masters and
  /// satellites, so cold_ is a small side table, not a per-node one.
  struct NodeCold {
    SimTime recv_processing = 0;  ///< the override, or the model default
    bool watched = false;         ///< socket_ts records every change
    TimeSeries socket_ts;
  };

  /// One in-flight send, raw or reliable.  Every engine leg of the
  /// exchange -- arrival, delivery, duplicate copy, ack, deadline,
  /// retransmit -- shares this pooled record and captures only
  /// {this, op-index}, so event captures stay inline and a send's message
  /// is stored exactly once, across all of its attempts.  `refs` counts
  /// the primary chain (attempts, backoffs, completion) plus an optional
  /// duplicate-delivery leg; ops are never cancelled and every pending leg
  /// holds a reference, so no generation tag is needed.  A reliable op is
  /// the unit of exactly-once processing: its first delivery to a handler
  /// sets `processed`, and dispatch suppresses every later one.
  struct SendOp {
    Message msg;
    SendCallback on_complete;
    /// The transport that retransmits a failed attempt; null for a raw
    /// send, and for a reliable one whose transport was destroyed.
    ReliableTransport* owner = nullptr;
    SimTime timeout = 0;   ///< per attempt, resolved when the op opens
    SimTime deadline = 0;  ///< the current attempt's
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint32_t refs = 0;
    int attempt = 0;  ///< attempts launched (1 = the initial send)
    bool duplicate = false;
    bool reliable = false;   ///< sent by a transport; outlives its detach
    bool processed = false;  ///< a handler ran on it (reliable ops only)
  };

  /// One leg of a send as an engine event: `Step` runs on the op.  Its
  /// prefetch() starts loading the op while the event before it runs.
  template <void (Network::*Step)(std::uint32_t)>
  struct Leg {
    Network* network;
    std::uint32_t op;
    void operator()() const { (network->*Step)(op); }
    void prefetch() const { network->prefetch_op(op); }
  };

  bool alive(NodeId node) const { return alive_ ? alive_(node) : true; }
  /// Receive cost of the node whose hot record is `hot`.
  SimTime receive_cost(const NodeHot& hot) const {
    return hot.cold ? cold_[hot.cold - 1].recv_processing : model_.recv_processing;
  }
  /// The node's cold entry, created on first use.
  NodeCold& cold_entry(NodeId node);
  void adjust_sockets(NodeId node, int delta);
  SimTime jittered(SimTime t);

  /// Opens an op for one send: validates the endpoints, stores the
  /// message and callback and resolves the timeout.  `owner` is the
  /// transport that retransmits failed attempts (null for a raw send).
  std::uint32_t open(NodeId from, NodeId to, Message&& msg, SimTime timeout,
                     SendCallback&& on_complete, ReliableTransport* owner);
  /// Launches one attempt of `op`: traffic counters, sender
  /// serialization, jitter, chaos verdict, sockets, deadline and the
  /// arrival event (or, if dropped, the deadline event).
  void launch(std::uint32_t op);
  /// Detaches the ops `owner` would retransmit (~ReliableTransport): they
  /// finish as single-attempt sends.
  void detach(const ReliableTransport* owner);
  /// Touches every cache line of `op` (a Leg's prefetch hook).
  void prefetch_op(std::uint32_t op) const;

  /// Resolves the attempt as lost: sockets hold until the sender's
  /// deadline, then the attempt fails (shared by dead-peer, chaos-drop
  /// and lost-ack paths).
  void fail_at_deadline(std::uint32_t op);
  /// Wire arrival: liveness check + receive serialization.
  void arrival_step(std::uint32_t op);
  /// Receive done: handler dispatch, duplicate leg, ack leg.
  void deliver_step(std::uint32_t op);
  void deliver_duplicate(std::uint32_t op);
  void acked(std::uint32_t op) { complete(op, true); }
  void timed_out(std::uint32_t op) { complete(op, false); }
  /// Closes the attempt's sockets.  A failed attempt of an owned op is
  /// relaunched after the backoff its transport picks; otherwise the op
  /// is released and the completion callback runs.
  void complete(std::uint32_t op, bool ok);
  void release_op(std::uint32_t op);
  /// Receive counters, then the type's handler -- unless the op is a
  /// reliable one already processed, whose repeat is suppressed.
  void dispatch(SendOp& state);

  sim::Engine& engine_;
  LinkModel model_;
  Rng rng_;
  std::function<bool(NodeId)> alive_;
  ChaosInjector* chaos_ = nullptr;
  std::vector<NodeHot> hot_;
  std::vector<NodeCold> cold_;  ///< indexed by NodeHot::cold - 1
  /// One handler per message type, indexed by type: delivery is one
  /// vector index -- no hashing, and no table that grows with the node
  /// count.  Message types are small dense integers (see
  /// net/message.hpp), which is what makes a flat table cheap.
  std::vector<Handler> handlers_by_type_;
  /// Recycled send records in stable chunked storage, so references stay
  /// valid while handlers send reentrantly (which may grow the pool).
  util::SlabPool<SendOp> send_ops_;
  MessageType next_dynamic_type_ = kDynamicTypeBase;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t failed_sends_ = 0;

  // Cached telemetry instruments (null when telemetry is off); they
  // mirror the struct-field stats so esprof sees the traffic volume.
  telemetry::Counter* messages_counter_ = nullptr;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Counter* failed_counter_ = nullptr;
  telemetry::Counter* delivered_counter_ = nullptr;
};

}  // namespace eslurm::net
