#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/chaos.hpp"
#include "net/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::net {

Network::Network(sim::Engine& engine, std::size_t node_count, LinkModel model, Rng rng)
    : engine_(engine), model_(model), rng_(rng), hot_(node_count) {
  if (auto* t = engine_.telemetry()) {
    messages_counter_ = &t->metrics.counter("net.messages_total");
    bytes_counter_ = &t->metrics.counter("net.bytes_total");
    failed_counter_ = &t->metrics.counter("net.failed_sends");
    delivered_counter_ = &t->metrics.counter("net.messages_delivered");
  }
}

void Network::set_liveness(std::function<bool(NodeId)> alive) { alive_ = std::move(alive); }

Network::NodeCold& Network::cold_entry(NodeId node) {
  NodeHot& hot = hot_.at(node);
  if (hot.cold == 0) {
    cold_.push_back(NodeCold{.recv_processing = model_.recv_processing});
    hot.cold = static_cast<std::uint32_t>(cold_.size());
  }
  return cold_[hot.cold - 1];
}

void Network::set_recv_processing(NodeId node, SimTime per_message) {
  cold_entry(node).recv_processing = per_message > 0 ? per_message : model_.recv_processing;
}

SimTime Network::recv_processing(NodeId node) const { return receive_cost(hot_.at(node)); }

void Network::register_handler(MessageType type, Handler handler) {
  if (type < 0) throw std::out_of_range("Network::register_handler: negative type");
  if (static_cast<std::size_t>(type) >= handlers_by_type_.size())
    handlers_by_type_.resize(static_cast<std::size_t>(type) + 1);
  handlers_by_type_[static_cast<std::size_t>(type)] = std::move(handler);
}

void Network::unregister_handler(MessageType type) {
  if (type < 0) throw std::out_of_range("Network::unregister_handler: negative type");
  if (static_cast<std::size_t>(type) < handlers_by_type_.size())
    handlers_by_type_[static_cast<std::size_t>(type)] = nullptr;
}

SimTime Network::jittered(SimTime t) {
  return static_cast<SimTime>(static_cast<double>(t) *
                              (1.0 + model_.jitter_frac * rng_.next_double()));
}

void Network::adjust_sockets(NodeId node, int delta) {
  NodeHot& hot = hot_[node];
  hot.open_sockets += delta;
  if (hot.cold == 0) return;
  NodeCold& entry = cold_[hot.cold - 1];
  if (entry.watched) entry.socket_ts.record(engine_.now(), hot.open_sockets);
}

void Network::watch_sockets(NodeId node) {
  NodeCold& entry = cold_entry(node);
  entry.watched = true;
  entry.socket_ts.record(engine_.now(), hot_[node].open_sockets);
}

const TimeSeries& Network::socket_series(NodeId node) const {
  static const TimeSeries kUnwatched;
  const NodeHot& hot = hot_.at(node);
  return hot.cold ? cold_[hot.cold - 1].socket_ts : kUnwatched;
}

void Network::fail_at_deadline(std::uint32_t op) {
  ++failed_sends_;
  if (failed_counter_) failed_counter_->inc();
  const SimTime fail_at = std::max(send_ops_[op].deadline, engine_.now());
  engine_.schedule_at(fail_at, Leg<&Network::timed_out>{this, op});
}

void Network::release_op(std::uint32_t op) {
  SendOp& state = send_ops_[op];
  if (--state.refs > 0) return;
  // Drop the payload and callback now so a parked free slot does not pin
  // user resources until its next reuse.
  state.msg.payload.reset();
  state.on_complete = nullptr;
  send_ops_.release(op);
}

void Network::complete(std::uint32_t op, bool ok) {
  SendOp& state = send_ops_[op];
  adjust_sockets(state.from, -1);
  adjust_sockets(state.to, -1);
  if (!ok && state.owner) {
    // A reliable send's attempt failed: its transport counts it and picks
    // a backoff (0: retries exhausted), and the same op launches again.
    if (const SimTime backoff = state.owner->attempt_failed(state.attempt); backoff > 0) {
      engine_.schedule_after(backoff, Leg<&Network::launch>{this, op});
      return;
    }
  }
  // Move the callback out before releasing: it may send() reentrantly,
  // which can reuse this very slot.
  SendCallback cb = std::move(state.on_complete);
  release_op(op);
  if (cb) cb(ok);
}

void Network::dispatch(SendOp& state) {
  ++hot_[state.to].received;
  if (delivered_counter_) delivered_counter_->inc();
  const Message& msg = state.msg;
  if (static_cast<std::size_t>(msg.type) < handlers_by_type_.size()) {
    if (const Handler& handler = handlers_by_type_[static_cast<std::size_t>(msg.type)]) {
      if (state.reliable) {
        if (state.processed) {
          // A retransmit after a lost ack, or a duplicated leg: acked (the
          // ack leg still runs) but not re-processed.
          if (state.owner) state.owner->duplicate_suppressed();
          return;
        }
        state.processed = true;
      }
      handler(state.to, msg);
    }
  }
}

void Network::arrival_step(std::uint32_t op) {
  // Failure path resolved at arrival time: if the receiver is dead (or
  // the sender died mid-flight), the sender blocks until its timeout.
  SendOp& state = send_ops_[op];
  if (!alive(state.to) || !alive(state.from)) {
    fail_at_deadline(op);
    return;
  }
  // Receive-side serialization: one message at a time per node.
  NodeHot& receiver = hot_[state.to];
  const SimTime recv_start = std::max(engine_.now(), receiver.recv_busy_until);
  const SimTime recv_done = recv_start + receive_cost(receiver);
  receiver.recv_busy_until = recv_done;
  engine_.schedule_at(recv_done, Leg<&Network::deliver_step>{this, op});
}

void Network::deliver_step(std::uint32_t op) {
  // `state` stays valid across the handler call: the pool's storage is
  // stable and this op holds a reference, so reentrant sends cannot move
  // or reuse the slot.
  SendOp& state = send_ops_[op];
  dispatch(state);

  if (state.duplicate) {
    // A second copy arrived on the wire: it queues behind this one in
    // the receive serializer and reaches the handler's type again with
    // the same frame -- a reliable op suppresses it like a retransmit.
    NodeHot& r = hot_[state.to];
    const SimTime dup_start = std::max(engine_.now(), r.recv_busy_until);
    const SimTime dup_done = dup_start + receive_cost(r);
    r.recv_busy_until = dup_done;
    ++state.refs;
    engine_.schedule_at(dup_done, Leg<&Network::deliver_duplicate>{this, op});
  }

  // Ack back to the sender: half a round trip of pure latency.  The
  // ack leg is subject to chaos too: a lost ack means the receiver
  // *did* process the message while the sender observes a timeout --
  // the classic at-least-once ambiguity a reliable op's `processed` flag
  // resolves when the retransmit arrives.
  ChaosInjector::Decision ack_verdict;
  if (chaos_) ack_verdict = chaos_->decide(state.to, state.from);
  if (ack_verdict.drop) {
    fail_at_deadline(op);
    return;
  }
  const SimTime ack_at =
      engine_.now() + jittered(model_.base_latency) + ack_verdict.extra_delay;
  engine_.schedule_at(ack_at, Leg<&Network::acked>{this, op});
}

void Network::deliver_duplicate(std::uint32_t op) {
  dispatch(send_ops_[op]);
  release_op(op);
}

void Network::send(NodeId from, NodeId to, Message msg, SimTime timeout,
                   SendCallback on_complete) {
  launch(open(from, to, std::move(msg), timeout, std::move(on_complete), nullptr));
}

std::uint32_t Network::open(NodeId from, NodeId to, Message&& msg, SimTime timeout,
                            SendCallback&& on_complete, ReliableTransport* owner) {
  if (from >= hot_.size() || to >= hot_.size())
    throw std::out_of_range("Network::send: bad node id");
  // The initial reference belongs to the primary chain (attempts ->
  // arrival -> delivery -> ack, or the deadline event).
  const std::uint32_t op = send_ops_.acquire();
  SendOp& state = send_ops_[op];
  state.msg = std::move(msg);
  state.msg.src = from;
  state.on_complete = std::move(on_complete);
  state.owner = owner;
  state.timeout = timeout > 0 ? timeout : model_.default_timeout;
  state.from = from;
  state.to = to;
  state.refs = 1;
  state.attempt = 0;
  state.reliable = owner != nullptr;
  state.processed = false;
  return op;
}

void Network::launch(std::uint32_t op) {
  SendOp& state = send_ops_[op];
  ++state.attempt;
  ++total_messages_;
  total_bytes_ += state.msg.bytes;
  if (messages_counter_) messages_counter_->inc();
  if (bytes_counter_) bytes_counter_->inc(static_cast<double>(state.msg.bytes));

  NodeHot& sender = hot_[state.from];
  ++sender.sent;

  // Sender-side serialization: the sending daemon spends send_processing
  // per message, one at a time.  Fan-out from a single node is therefore
  // inherently serial -- the core scalability effect the paper exploits.
  const SimTime send_start = std::max(engine_.now(), sender.send_busy_until);
  const SimTime send_done = send_start + model_.send_processing;
  sender.send_busy_until = send_done;

  const SimTime wire =
      jittered(model_.base_latency + model_.connection_setup) +
      static_cast<SimTime>(static_cast<double>(state.msg.bytes) /
                           model_.bandwidth_bytes_per_sec * 1e9);

  // Chaos verdict for the outbound leg (cheap no-op without an injector).
  ChaosInjector::Decision verdict;
  if (chaos_) verdict = chaos_->decide(state.from, state.to);

  const SimTime arrival = send_done + wire + verdict.extra_delay;

  // The connection stays open from the start of the send until completion
  // (ack) or timeout; both endpoints hold a socket for that span.
  adjust_sockets(state.from, +1);
  adjust_sockets(state.to, +1);

  state.deadline = engine_.now() + state.timeout;
  state.duplicate = verdict.duplicate;
  if (verdict.drop) {
    // Lost in flight (random drop or partition): the receiver never sees
    // the message and the sender observes a timeout, exactly as with a
    // dead peer.
    fail_at_deadline(op);
    return;
  }
  engine_.schedule_at(arrival, Leg<&Network::arrival_step>{this, op});
}

void Network::detach(const ReliableTransport* owner) {
  // Released slots may still name `owner`; open() overwrites that.
  for (std::uint32_t op = 0; op < send_ops_.capacity(); ++op)
    if (send_ops_[op].owner == owner) send_ops_[op].owner = nullptr;
}

void Network::prefetch_op(std::uint32_t op) const {
  const char* first = reinterpret_cast<const char*>(&send_ops_[op]);
  const char* last = first + sizeof(SendOp) - 1;
  for (const char* line = first; line < last; line += 64) __builtin_prefetch(line);
  __builtin_prefetch(last);
}

}  // namespace eslurm::net
