// At-least-once reliable channel layered on Network::send.
//
// Network::send gives a single attempt with an ambiguous failure: a
// `false` completion means "no ack before the deadline", which covers a
// dead peer, a dropped message, *and* a dropped ack (where the receiver
// actually processed the message).  The ReliableTransport turns that into
// a usable contract for RM control traffic:
//
//   * sender side: every logical message carries a per-channel sequence
//     number in its header (Message::seq) and is retransmitted on failure
//     with exponential backoff + jitter, up to a retry cap; only after the
//     cap is exhausted does the caller observe a permanent failure (so
//     transient loss is absorbed, while a genuinely dead satellite still
//     surfaces as one).
//   * receiver side: a handler registered through the transport sits
//     behind a sliding anti-replay window per (sender, receiver, type)
//     channel, as in RFC 4303 section 3.4.3: the highest seq delivered
//     plus a 128-bit mask of the seqs below it.  A retransmit after a
//     lost ack, or a chaos-duplicated frame, is acked but not re-processed
//     -- job-load, job-terminate and heartbeat messages become idempotent.
//     A frame more than 127 seqs behind the highest is older than the
//     window: it is delivered and counted (dedup_window_wraps).
//
// The result is at-least-once delivery on the wire, exactly-once
// processing at the handler (within the window).  With no chaos injector
// attached the first attempt always succeeds, no retransmit timers fire
// and no extra rng draws happen, and the frame is the caller's message
// byte for byte, so existing runs stay bit-identical when a subsystem
// migrates onto the transport.
//
// The per-message path neither hashes nor allocates once warm: message
// types map to dense slots, and each slot keeps one row indexed by
// receiver (grown on first use up to the receivers actually reached).
// A row entry is the receiver's inbox: its per-sender channels
// {next_seq, window}, the first one inline, so one lookup serves the
// sender's seq and the receiver's window alike.  An inbox is exactly one
// aligned 64-byte cache line -- the 40-byte inline channel (its 128-bit
// window kept as two 64-bit words, so nothing forces 16-byte alignment)
// plus the spill vector -- and each of a message's two channel lookups
// (sender's seq, receiver's window) touches one line.  A registration is
// one network handler for the whole type that finds the channel from the
// receiving node, so a frame passes the window at any node it reaches.
//
// A reliable send is one record: the network's pooled send op, which
// carries the frame, the caller's callback and the attempt count, with
// this transport as its owner.  A failed attempt asks the owner for a
// backoff (attempt_failed) and the network relaunches the same op, so a
// retransmit copies no frame and allocates nothing.  Destroying a
// transport detaches its in-flight sends: they finish as single-attempt
// sends and their callbacks still fire exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace eslurm::telemetry {
class Counter;
}  // namespace eslurm::telemetry

namespace eslurm::net {

struct TransportOptions {
  SimTime rto_initial = milliseconds(500);  ///< first retransmit timeout
  double backoff_factor = 2.0;              ///< rto *= factor per attempt
  SimTime rto_max = seconds(8);             ///< backoff ceiling
  double jitter_frac = 0.25;                ///< +/- fraction on each rto
  int max_retries = 6;                      ///< retransmits after attempt 1
};

/// Upper bound on one reliable send's duration before it reports a
/// permanent failure: every attempt timing out plus the full
/// (jitter-inflated) backoff schedule.  Watchdogs layered above the
/// transport (tree completion, RM subtask) size themselves with this so
/// they do not fire while the transport is still legitimately retrying.
SimTime worst_case_send_time(const TransportOptions& options,
                             SimTime per_attempt_timeout);

/// Reliable sender/receiver endpoint pair multiplexed over one Network.
/// One instance serves many (from, to, type) channels; subsystems
/// typically own one transport and route all their control traffic
/// through it.
class ReliableTransport {
 public:
  /// Seqs remembered per channel below (and including) the highest one.
  static constexpr std::uint64_t kDedupWindow = 128;

  /// `name` labels this transport's telemetry counters so several
  /// instances (rm, frontend, a test) stay distinguishable.
  ReliableTransport(Network& network, Rng rng, TransportOptions options = {},
                    std::string name = "transport");
  ~ReliableTransport();

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  Network& network() { return network_; }
  const TransportOptions& options() const { return options_; }

  /// Reliable counterpart of Network::send: retransmits on failure until
  /// the retry cap, then reports `ok=false` (permanent failure).
  /// `timeout` <= 0 uses the link-model default and bounds each attempt,
  /// not the whole exchange.  Overwrites msg.seq.  Throws
  /// std::out_of_range on a bad endpoint or a negative type, before any
  /// channel, counter or send op is touched.
  void send(NodeId from, NodeId to, Message msg, SimTime timeout = 0,
            SendCallback on_complete = {});

  /// Registers/replaces the handler of `type` (see
  /// Network::register_handler), behind the anti-replay window keyed by
  /// (type, sender, receiving node).  The handler receives the delivered
  /// frame itself (msg.src / type / payload as sent, msg.seq as stamped
  /// by the sender).
  void register_handler(MessageType type, Handler handler);
  void unregister_handler(MessageType type);

  std::uint64_t sends() const { return sends_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t permanent_failures() const { return permanent_failures_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  /// Arrivals of frames at least kDedupWindow seqs behind the highest seq
  /// delivered on their channel.  Such a frame is *processed* (the window
  /// no longer remembers it), every time it arrives, so a nonzero count
  /// means a sufficiently delayed retransmit -- e.g. released by a long
  /// partition after >= kDedupWindow newer messages -- was NOT
  /// deduplicated.  The exactly-once guarantee is bounded by the window;
  /// this counter makes the boundary observable instead of silent.
  std::uint64_t dedup_window_wraps() const { return dedup_window_wraps_; }

 private:
  /// Calls attempt_failed() on the sends this transport owns.
  friend class Network;

  /// One (sender -> receiver, type) stream.  The sender side uses
  /// next_seq; the receiver side keeps the anti-replay window: bit d of
  /// the 128-bit mask {mask_lo, mask_hi} is set when seq `hi - d` was
  /// delivered.  The initial state (hi 0, empty mask) accepts seq 0 like
  /// any unseen seq.  The mask is two words, not an `unsigned __int128`,
  /// so a channel is 8-byte aligned and 40 bytes; admit() does the
  /// 128-bit arithmetic.
  struct Channel {
    std::uint64_t mask_lo = 0;
    std::uint64_t mask_hi = 0;
    std::uint64_t hi = 0;
    std::uint64_t next_seq = 0;
    NodeId from = kNoNode;
  };
  /// A receiver's channels for one type.  The first sender's channel is
  /// stored inline, so the common single-sender case (a tree child and
  /// its parent) costs one row access; further senders spill into a
  /// vector, in first-use order.  One row entry is one cache line.
  struct alignas(64) Inbox {
    Channel first;
    std::vector<Channel> others;
  };
  static_assert(sizeof(Inbox) == 64, "a transport inbox must be exactly one 64-byte line");
  std::uint32_t slot_of(MessageType type);
  /// The (from -> to) channel of `slot`, created on first use.  Both
  /// endpoints must be valid node ids.
  Channel& channel(std::uint32_t slot, NodeId from, NodeId to);
  /// Anti-replay check; false means `seq` is a duplicate to suppress.
  bool admit(Channel& channel, std::uint64_t seq);
  /// Runs `frame` received by `self` through the window of its channel;
  /// false means a suppressed duplicate.
  bool admit_frame(std::uint32_t slot, NodeId self, const Message& frame);
  /// Attempt `attempt` of an owned send failed: counts a retransmit and
  /// returns its backoff delay (> 0), or counts a permanent failure and
  /// returns 0 once the retry cap is exhausted.
  SimTime attempt_failed(int attempt);
  SimTime backoff_delay(int attempt);

  Network& network_;
  Rng rng_;
  TransportOptions options_;
  std::string name_;

  std::vector<std::uint32_t> slot_by_type_;  ///< type -> slot + 1 (0: none)
  /// [slot][receiver] -> channels from each sender.
  std::vector<std::vector<Inbox>> channels_;
  std::vector<MessageType> registered_types_;  ///< unregistered from the network on destruction

  std::uint64_t sends_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t permanent_failures_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t dedup_window_wraps_ = 0;

  telemetry::Counter* sends_counter_ = nullptr;
  telemetry::Counter* retransmits_counter_ = nullptr;
  telemetry::Counter* failures_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
  telemetry::Counter* wraps_counter_ = nullptr;
};

}  // namespace eslurm::net
