// At-least-once reliable channel layered on Network::send.
//
// Network::send gives a single attempt with an ambiguous failure: a
// `false` completion means "no ack before the deadline", which covers a
// dead peer, a dropped message, *and* a dropped ack (where the receiver
// actually processed the message).  The ReliableTransport turns that into
// a usable contract for RM control traffic:
//
//   * sender side: every logical message is retransmitted on failure
//     with exponential backoff + jitter, up to a retry cap; only after the
//     cap is exhausted does the caller observe a permanent failure (so
//     transient loss is absorbed, while a genuinely dead satellite still
//     surfaces as one).
//   * receiver side: a reliable send is one record -- the network's pooled
//     send op, which carries the frame, the caller's callback and the
//     attempt count across every attempt and duplicated leg, with this
//     transport as its owner.  The op's first delivery to a handler marks
//     it processed; a retransmit after a lost ack, or a chaos-duplicated
//     frame, is acked but not re-processed (Network::dispatch), however
//     late it arrives -- job-load, job-terminate and heartbeat messages
//     become idempotent.  The receiver keeps no per-peer state.
//
// The result is at-least-once delivery on the wire, exactly-once
// processing at the handler.  Handlers register on the Network (one per
// type, as for raw traffic); the transport only sends.  With no chaos
// injector attached the first attempt always succeeds, no retransmit
// timers fire and no extra rng draws happen, and the frame is the
// caller's message byte for byte, so existing runs stay bit-identical
// when a subsystem migrates onto the transport.
//
// A failed attempt asks the owner for a backoff (attempt_failed) and the
// network relaunches the same op, so a retransmit copies no frame and
// allocates nothing.  Destroying a transport detaches its in-flight
// sends: they finish as single-attempt sends, their callbacks still fire
// exactly once, and an op already processed stays suppressed.
#pragma once

#include <cstdint>
#include <string>

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

class ReliableTransport;

/// The one raw-or-reliable switch of the control plane: sends through
/// `transport` when one is given, as one raw Network::send otherwise.
void send(Network& network, ReliableTransport* transport, NodeId from, NodeId to,
          Message msg, SimTime timeout = 0, SendCallback on_complete = {});

/// Worst-case duration of one such send against an unresponsive peer:
/// `timeout` (the link default when <= 0) raw, the transport's full
/// retransmit schedule otherwise.  Watchdogs must scale with this or they
/// fire mid-retransmit.
SimTime contact_budget(const Network& network, const ReliableTransport* transport,
                       SimTime timeout);

/// Reliable sender multiplexed over one Network.  One instance serves
/// many (from, to, type) streams; subsystems typically own one transport
/// and route all their control traffic through it.
class ReliableTransport {
 public:
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
  /// the retry cap, then reports `ok=false` (permanent failure).  The
  /// receiving type's handler (Network::register_handler) processes the
  /// send at most once.  `timeout` <= 0 uses the link-model default and
  /// bounds each attempt, not the whole exchange.  Throws
  /// std::out_of_range on a bad endpoint or a negative type, before any
  /// counter or send op is touched.
  void send(NodeId from, NodeId to, Message msg, SimTime timeout = 0,
            SendCallback on_complete = {});

  std::uint64_t sends() const { return sends_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t permanent_failures() const { return permanent_failures_; }
  /// Deliveries of an already processed send that reached a handler's
  /// type and were not re-processed.
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

 private:
  /// Calls attempt_failed() and duplicate_suppressed() on the sends this
  /// transport owns.
  friend class Network;

  /// Attempt `attempt` of an owned send failed: counts a retransmit and
  /// returns its backoff delay (> 0), or counts a permanent failure and
  /// returns 0 once the retry cap is exhausted.
  SimTime attempt_failed(int attempt);
  SimTime backoff_delay(int attempt);
  /// An owned send reached its handler again after being processed.
  void duplicate_suppressed();

  Network& network_;
  Rng rng_;
  TransportOptions options_;
  std::string name_;

  std::uint64_t sends_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t permanent_failures_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;

  telemetry::Counter* sends_counter_ = nullptr;
  telemetry::Counter* retransmits_counter_ = nullptr;
  telemetry::Counter* failures_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
};

}  // namespace eslurm::net
