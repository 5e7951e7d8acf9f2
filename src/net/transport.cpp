#include "net/transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace eslurm::net {

SimTime worst_case_send_time(const TransportOptions& options,
                             SimTime per_attempt_timeout) {
  double backoff_sum = 0.0;
  double rto = static_cast<double>(options.rto_initial);
  for (int i = 0; i < options.max_retries; ++i) {
    backoff_sum += std::min(rto, static_cast<double>(options.rto_max));
    rto *= options.backoff_factor;
  }
  backoff_sum *= 1.0 + options.jitter_frac;
  return per_attempt_timeout * (options.max_retries + 1) +
         static_cast<SimTime>(backoff_sum);
}

ReliableTransport::ReliableTransport(Network& network, Rng rng,
                                     TransportOptions options, std::string name)
    : network_(network),
      rng_(std::move(rng)),
      options_(options),
      name_(std::move(name)) {
  if (auto* t = network_.engine().telemetry()) {
    sends_counter_ =
        &t->metrics.counter("transport.sends", {{"transport", name_}});
    retransmits_counter_ =
        &t->metrics.counter("transport.retransmits", {{"transport", name_}});
    failures_counter_ = &t->metrics.counter("transport.permanent_failures",
                                            {{"transport", name_}});
    duplicates_counter_ = &t->metrics.counter("transport.duplicates_suppressed",
                                              {{"transport", name_}});
    wraps_counter_ = &t->metrics.counter("transport.dedup_window_wrap",
                                         {{"transport", name_}});
  }
}

ReliableTransport::~ReliableTransport() {
  for (const MessageType type : registered_types_) network_.unregister_handler(type);
  network_.detach(this);
}

SimTime ReliableTransport::backoff_delay(int attempt) {
  double rto = static_cast<double>(options_.rto_initial);
  for (int i = 1; i < attempt; ++i) rto *= options_.backoff_factor;
  rto = std::min(rto, static_cast<double>(options_.rto_max));
  // Symmetric jitter desynchronizes retransmit storms; the draw only
  // happens on a retransmit, so loss-free runs touch no rng state.
  if (options_.jitter_frac > 0.0) {
    rto *= 1.0 + options_.jitter_frac * (2.0 * rng_.next_double() - 1.0);
  }
  return std::max<SimTime>(1, static_cast<SimTime>(rto));
}

std::uint32_t ReliableTransport::slot_of(MessageType type) {
  if (type < 0) throw std::out_of_range("ReliableTransport: negative message type");
  const auto t = static_cast<std::size_t>(type);
  if (t >= slot_by_type_.size()) slot_by_type_.resize(t + 1, 0);
  if (slot_by_type_[t] == 0) {
    channels_.emplace_back();
    slot_by_type_[t] = static_cast<std::uint32_t>(channels_.size());
  }
  return slot_by_type_[t] - 1;
}

ReliableTransport::Channel& ReliableTransport::channel(std::uint32_t slot, NodeId from,
                                                      NodeId to) {
  // Rows grow on use, only as far as the receivers a type actually
  // reaches: most types serve the master and a few satellites, which
  // hold the lowest node ids.
  auto& row = channels_[slot];
  if (to >= row.size()) row.resize(static_cast<std::size_t>(to) + 1);
  Inbox& inbox = row[to];
  if (inbox.first.from == from) return inbox.first;
  if (inbox.first.from == kNoNode) {
    inbox.first.from = from;
    return inbox.first;
  }
  for (Channel& c : inbox.others)
    if (c.from == from) return c;
  Channel& added = inbox.others.emplace_back();
  added.from = from;
  return added;
}

bool ReliableTransport::admit(Channel& ch, std::uint64_t seq) {
  using Mask = unsigned __int128;
  const auto store = [&ch](Mask mask) {
    ch.mask_lo = static_cast<std::uint64_t>(mask);
    ch.mask_hi = static_cast<std::uint64_t>(mask >> 64);
  };
  Mask mask = (static_cast<Mask>(ch.mask_hi) << 64) | ch.mask_lo;
  if (seq > ch.hi) {
    // Newer than anything seen: slide the window forward.
    const std::uint64_t shift = seq - ch.hi;
    mask = shift >= kDedupWindow ? 0 : mask << shift;
    store(mask | 1);
    ch.hi = seq;
    return true;
  }
  const std::uint64_t age = ch.hi - seq;
  if (age >= kDedupWindow) {
    // The window no longer covers seqs this old: if this frame is a late
    // retransmit it will be re-processed.  Count the wrap (the guarantee
    // boundary) but deliver -- the transport cannot tell it from a
    // never-seen frame.
    ++dedup_window_wraps_;
    if (wraps_counter_) wraps_counter_->inc();
    return true;
  }
  const Mask bit = static_cast<Mask>(1) << age;
  if (mask & bit) return false;
  store(mask | bit);
  return true;
}

SimTime ReliableTransport::attempt_failed(int attempt) {
  if (attempt <= options_.max_retries) {
    ++retransmits_;
    if (retransmits_counter_) retransmits_counter_->inc();
    return backoff_delay(attempt);
  }
  ++permanent_failures_;
  if (failures_counter_) failures_counter_->inc();
  return 0;
}

void ReliableTransport::send(NodeId from, NodeId to, Message msg,
                             SimTime timeout, SendCallback on_complete) {
  if (from >= network_.node_count() || to >= network_.node_count())
    throw std::out_of_range("ReliableTransport::send: bad node id");
  const std::uint32_t slot = slot_of(msg.type);  // throws on a negative type
  ++sends_;
  if (sends_counter_) sends_counter_->inc();
  msg.seq = channel(slot, from, to).next_seq++;
  network_.launch(
      network_.open(from, to, std::move(msg), timeout, std::move(on_complete), this));
}

bool ReliableTransport::admit_frame(std::uint32_t slot, NodeId self, const Message& frame) {
  if (admit(channel(slot, frame.src, self), frame.seq)) return true;
  // Retransmit after a lost ack, or a chaos duplicate: ack it (the
  // network already does) but do not re-process.
  ++duplicates_suppressed_;
  if (duplicates_counter_) duplicates_counter_->inc();
  return false;
}

void ReliableTransport::register_handler(MessageType type, Handler handler) {
  network_.register_handler(
      type, [this, slot = slot_of(type), handler = std::move(handler)](NodeId self,
                                                                       const Message& frame) {
        if (admit_frame(slot, self, frame)) handler(self, frame);
      });
  registered_types_.push_back(type);
}

void ReliableTransport::unregister_handler(MessageType type) {
  network_.unregister_handler(type);
  registered_types_.erase(std::remove(registered_types_.begin(), registered_types_.end(), type),
                          registered_types_.end());
}

}  // namespace eslurm::net
