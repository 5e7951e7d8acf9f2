// Daemon resource accounting: reproduces the measurements of Fig. 7/9 and
// Tables V/VI -- CPU time, virtual/real memory and concurrent sockets of
// the master daemon (slurmctld equivalent) and of satellite daemons.
//
// The model is structural: CPU time accrues per message handled and per
// scheduling cycle; resident memory is a base plus per-tracked-entity
// cost (nodes, jobs, active broadcast tasks, connections); virtual
// memory is a base plus a multiple of RSS (thread stacks, arenas).  The
// absolute constants are per-RM profile knobs (profiles.hpp); what the
// benches compare is how usage *scales* with node count and traffic.
#pragma once

#include <memory>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace eslurm::rm {

struct AccountingModel {
  double cpu_us_per_message = 40.0;       ///< handling one protocol message
  double cpu_us_sched_base = 2000.0;      ///< fixed cost of a scheduler pass
  double cpu_us_sched_per_job = 25.0;     ///< per pending/active job
  double cpu_us_sched_per_node = 1.0;     ///< per managed node

  double rss_base_mb = 30.0;
  double rss_kb_per_node = 6.0;           ///< node table entry
  double rss_kb_per_job = 24.0;           ///< job record
  double rss_kb_per_socket = 12.0;        ///< connection buffers
  double vmem_base_gb = 0.5;
  double vmem_per_rss = 8.0;              ///< arenas/stacks multiplier
  double vmem_mb_per_node = 0.0;          ///< address-space maps per node
};

/// Tracks one daemon's simulated resource usage over time.
class DaemonStats {
 public:
  DaemonStats(sim::Engine& engine, net::Network& network, net::NodeId node,
              AccountingModel model);

  net::NodeId node() const { return node_; }

  /// Starts periodic sampling (also enables socket watching on the node).
  void start_sampling(SimTime interval, SimTime horizon);

  // --- charge / track -----------------------------------------------
  void charge_cpu_us(double us) { cpu_seconds_ += us * 1e-6; }
  void set_tracked_nodes(std::size_t n) { tracked_nodes_ = n; }
  void set_tracked_jobs(std::size_t n) { tracked_jobs_ = n; }
  /// Long-lived connections beyond the in-flight ones the network counts
  /// (e.g. SGE's persistent execd links).
  void set_persistent_sockets(int n) { persistent_sockets_ = n; }

  // --- instantaneous values ------------------------------------------
  double cpu_seconds() const;             ///< incl. message handling so far
  double rss_mb() const;
  double vmem_gb() const;
  int sockets_now() const;

  // --- sampled series (one point per sample tick) ---------------------
  const TimeSeries& cpu_util_series() const { return cpu_util_; }   ///< %
  const TimeSeries& rss_series() const { return rss_mb_series_; }
  const TimeSeries& vmem_series() const { return vmem_gb_series_; }
  const TimeSeries& socket_series() const { return sockets_; }

 private:
  void sample();

  sim::Engine& engine_;
  net::Network& net_;
  net::NodeId node_;
  AccountingModel model_;

  double cpu_seconds_ = 0.0;
  std::uint64_t counted_messages_ = 0;  ///< messages already folded into cpu
  std::size_t tracked_nodes_ = 0;
  std::size_t tracked_jobs_ = 0;
  int persistent_sockets_ = 0;

  double last_sample_cpu_ = 0.0;
  SimTime last_sample_at_ = 0;
  SimTime last_window_start_ = 0;
  TimeSeries cpu_util_, rss_mb_series_, vmem_gb_series_, sockets_;
  std::unique_ptr<sim::PeriodicTask> sampler_;
};

}  // namespace eslurm::rm
