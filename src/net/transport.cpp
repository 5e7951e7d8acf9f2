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

void send(Network& network, ReliableTransport* transport, NodeId from, NodeId to,
          Message msg, SimTime timeout, SendCallback on_complete) {
  if (transport) {
    transport->send(from, to, std::move(msg), timeout, std::move(on_complete));
  } else {
    network.send(from, to, std::move(msg), timeout, std::move(on_complete));
  }
}

SimTime contact_budget(const Network& network, const ReliableTransport* transport,
                       SimTime timeout) {
  if (timeout <= 0) timeout = network.link_model().default_timeout;
  if (!transport) return timeout;
  return worst_case_send_time(transport->options(), timeout);
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
  }
}

ReliableTransport::~ReliableTransport() { network_.detach(this); }

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

void ReliableTransport::duplicate_suppressed() {
  ++duplicates_suppressed_;
  if (duplicates_counter_) duplicates_counter_->inc();
}

void ReliableTransport::send(NodeId from, NodeId to, Message msg,
                             SimTime timeout, SendCallback on_complete) {
  if (from >= network_.node_count() || to >= network_.node_count())
    throw std::out_of_range("ReliableTransport::send: bad node id");
  if (msg.type < 0) throw std::out_of_range("ReliableTransport::send: negative message type");
  ++sends_;
  if (sends_counter_) sends_counter_->inc();
  network_.launch(
      network_.open(from, to, std::move(msg), timeout, std::move(on_complete), this));
}

}  // namespace eslurm::net
