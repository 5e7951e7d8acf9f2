// ESLURM: the distributed RM of Section III.
//
// The master never talks to compute nodes directly.  Each control
// broadcast is split across N satellite nodes (Eq. 1), mapped round-robin
// from the satellite pool; every satellite relays its partition through
// an FP-Tree rooted at itself and reports completion back, which the
// master aggregates.  Satellite failures are detected through broadcast
// outcomes and heartbeats (the Fig. 2 state machine); a failed subtask is
// re-allocated to the next satellite in the round-robin, and after two
// re-allocations the master takes the subtask over itself so the task
// always completes (Section III-C).
#pragma once

#include <memory>
#include <unordered_map>

#include "cluster/monitoring.hpp"
#include "comm/fp_tree.hpp"
#include "rm/resource_manager.hpp"
#include "rm/satellite.hpp"

namespace eslurm::rm {

/// Message types of the master <-> satellite protocol (RM range 200+).
inline constexpr net::MessageType kMsgSatelliteTask = 200;
inline constexpr net::MessageType kMsgSatelliteResult = 201;
inline constexpr net::MessageType kMsgSatelliteHeartbeat = 202;
/// Sent by a freshly promoted master to every surviving satellite so
/// they re-home their control channel (HA failover only).
inline constexpr net::MessageType kMsgSatelliteReregister = 203;

/// Accounting model of a satellite daemon (Table VI shape: ~10 GB vmem,
/// 130-280 MB RSS scaling with the nodes per task).
AccountingModel satellite_accounting();

class EslurmRm final : public ResourceManager {
 public:
  /// `predictor` feeds the FP-Tree constructor; pass nullptr (or set
  /// config.use_fp_tree = false) for plain-tree relaying.
  EslurmRm(sim::Engine& engine, net::Network& network, cluster::ClusterModel& cluster,
           RmCostProfile profile, RmDeployment deployment, RmRuntimeConfig config,
           const cluster::FailurePredictor* predictor = nullptr);
  ~EslurmRm() override;

  void start(SimTime horizon) override;

  struct SatelliteReport {
    NodeId node = net::kNoNode;
    SatelliteState state = SatelliteState::Unknown;
    std::uint64_t tasks_received = 0;
    double avg_nodes_per_task = 0.0;
    double rss_mb = 0.0;
    double vmem_gb = 0.0;
    double cpu_minutes = 0.0;
    double avg_sockets = 0.0;
    int sockets_now = 0;
  };
  std::vector<SatelliteReport> satellite_reports() const;
  DaemonStats& satellite_stats(std::size_t index) { return *satellites_[index].stats; }
  SatelliteState satellite_state(std::size_t index) const {
    return satellites_[index].state;
  }

  /// Aggregate FP-Tree constructor statistics (Section VII-A leaf
  /// placement efficacy) -- only meaningful when use_fp_tree is on.
  const comm::RearrangeStats* fp_tree_stats() const;
  std::uint64_t fp_trees_constructed() const;

  std::uint64_t subtask_reallocations() const { return reallocations_; }
  std::uint64_t master_takeovers() const { return takeovers_; }

  /// Eq. 1: number of satellites used for s participating nodes given
  /// tree width w and m available satellites.
  static std::size_t satellites_for(std::size_t s, int w, std::size_t m);

  /// The RM's reliable channel (nullptr when use_reliable_transport is
  /// off).  Tests and esim read its retransmit and suppression counters.
  const net::ReliableTransport* transport() const { return transport_.get(); }

  /// Satellites that acked the promoted master's re-registration round.
  std::uint64_t satellites_reregistered() const { return reregistered_; }

 protected:
  void dispatch(std::vector<NodeId> targets, std::size_t bytes,
                comm::Broadcaster::Callback done) override;

  /// HA-aware outage: the master *node* goes down (sends to it fail),
  /// its in-memory dispatch state dies, and the standby's detector is
  /// left to discover the death.  Without HA, defers to the base
  /// reboot-and-recover model.
  void begin_outage() override;

 private:
  struct Satellite {
    NodeId node = net::kNoNode;
    SatelliteState state = SatelliteState::Unknown;
    SimTime fault_since = 0;
    std::size_t active_tasks = 0;
    std::uint64_t tasks_received = 0;
    RunningStats nodes_per_task;
    std::unique_ptr<DaemonStats> stats;
  };
  struct Subtask {
    std::shared_ptr<const std::vector<NodeId>> list;
    std::size_t bytes = 0;
    int reallocations = 0;
    std::size_t assigned = SIZE_MAX;  ///< satellite index
    sim::EventId watchdog = sim::kInvalidEvent;
    bool done = false;
  };
  struct DispatchState {
    std::uint64_t id = 0;
    SimTime started = 0;
    std::size_t pending = 0;
    comm::BroadcastResult aggregate;
    comm::Broadcaster::Callback done;
    std::vector<Subtask> subtasks;
  };

  void apply_event(std::size_t sat_index, SatelliteEvent event);
  void send_task(NodeId sat_node, std::size_t bytes, std::uint64_t dispatch_id,
                 std::size_t subtask_index, std::size_t sat_index);
  /// BT-failure (task rejected or watchdog fired): re-allocate the subtask.
  void subtask_failed(std::uint64_t dispatch_id, std::size_t subtask_index,
                      std::size_t sat_index);
  void start_relay(std::uint64_t dispatch_id, std::uint32_t subtask_index,
                   std::size_t sat_index, NodeId sat_node);
  std::size_t pick_satellite();  ///< round-robin over RUNNING/BUSY, SIZE_MAX if none
  void assign_subtask(std::uint64_t dispatch_id, std::size_t subtask_index);
  void master_takeover(std::uint64_t dispatch_id, std::size_t subtask_index);
  void subtask_finished(std::uint64_t dispatch_id, std::size_t subtask_index,
                        const comm::BroadcastResult& result);
  void on_satellite_task(const net::Message& msg);
  void on_satellite_result(const net::Message& msg);
  void heartbeat_satellites();
  SimTime subtask_watchdog_delay(std::size_t list_size) const;

  // --- HA failover (Section III-C extended: satellite-promoted master) -
  /// Detector callback on the standby: recover state from the replica
  /// store and schedule the takeover after the simulated replay cost.
  void begin_promotion();
  void finish_promotion(ha::StateImage image, SimTime detection,
                        std::size_t replay_records);
  /// The crashed node finished rebooting: it rejoins as the new standby
  /// (role swap) -- or recovers as master if no promotion happened.
  void master_rejoined(NodeId old_master);

  const cluster::FailurePredictor* predictor_;
  cluster::NullFailurePredictor null_predictor_;
  /// Constructed before relay_ so the broadcaster can route through it.
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<comm::TreeBroadcaster> relay_;  ///< FP-Tree or plain tree

  std::vector<Satellite> satellites_;
  std::size_t rr_next_ = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<DispatchState>> dispatches_;
  std::uint64_t next_dispatch_id_ = 1;
  SimTime master_busy_until_ = 0;
  std::uint64_t reallocations_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t reregistered_ = 0;
  std::unique_ptr<sim::PeriodicTask> satellite_hb_;
};

}  // namespace eslurm::rm
