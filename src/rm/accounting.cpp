#include "rm/accounting.hpp"

#include <algorithm>

namespace eslurm::rm {

DaemonStats::DaemonStats(sim::Engine& engine, net::Network& network, net::NodeId node,
                         AccountingModel model)
    : engine_(engine), net_(network), node_(node), model_(model) {}

void DaemonStats::start_sampling(SimTime interval, SimTime horizon) {
  net_.watch_sockets(node_);
  last_sample_at_ = engine_.now();
  sampler_ = std::make_unique<sim::PeriodicTask>(engine_, interval, [this, horizon] {
    sample();
    if (engine_.now() >= horizon) sampler_->stop();
  });
  sampler_->start(interval);
}

double DaemonStats::cpu_seconds() const {
  // Message handling charged lazily from the network counters.
  const std::uint64_t handled = net_.messages_received(node_) + net_.messages_sent(node_);
  return cpu_seconds_ + static_cast<double>(handled) * model_.cpu_us_per_message * 1e-6;
}

double DaemonStats::rss_mb() const {
  return model_.rss_base_mb +
         (static_cast<double>(tracked_nodes_) * model_.rss_kb_per_node +
          static_cast<double>(tracked_jobs_) * model_.rss_kb_per_job +
          static_cast<double>(sockets_now()) * model_.rss_kb_per_socket) /
             1024.0;
}

double DaemonStats::vmem_gb() const {
  return model_.vmem_base_gb + model_.vmem_per_rss * rss_mb() / 1024.0 +
         model_.vmem_mb_per_node * static_cast<double>(tracked_nodes_) / 1024.0;
}

int DaemonStats::sockets_now() const {
  return net_.open_sockets(node_) + persistent_sockets_;
}

void DaemonStats::sample() {
  const SimTime now = engine_.now();
  const double cpu = cpu_seconds();
  const double wall = to_seconds(now - last_sample_at_);
  if (wall > 0) {
    const double util = 100.0 * (cpu - last_sample_cpu_) / wall;
    cpu_util_.record(now, std::clamp(util, 0.0, 100.0));
  }
  last_sample_cpu_ = cpu;
  last_sample_at_ = now;
  rss_mb_series_.record(now, rss_mb());
  vmem_gb_series_.record(now, vmem_gb());
  // Connections are bursty (report waves, dispatch fans); record the
  // peak within the sample window, as a 1 Hz system monitor would see.
  const double window_peak =
      std::max(net_.socket_series(node_).max_since(last_window_start_),
               static_cast<double>(net_.open_sockets(node_)));
  sockets_.record(now, window_peak + persistent_sockets_);
  last_window_start_ = now;
}

}  // namespace eslurm::rm
