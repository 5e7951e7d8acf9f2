// Server-side RPC gateway: admission control, priority lanes, and
// satellite-served reads.
//
// The gateway is the RM's front door.  Every user RPC passes through
// admission control *before* it touches the network: a connection cap
// bounds how many requests may be in flight to the master, a bounded
// two-lane queue (mutating ahead of read) absorbs bursts, and anything
// beyond the queue is shed -- reads with a retry hint (the client backs
// off and tries again), mutating requests with a hard refusal.
//
// Under ESLURM, read-only queries never have to reach the master at all:
// the gateway routes them round-robin over serviceable satellites, each
// of which answers from a TTL'd snapshot cache (snapshot_cache.hpp) and
// only contacts the master to refresh an expired snapshot -- one
// coalesced refresh per satellite per TTL window, no matter how many
// clients are asking.  This is the mechanism behind the Section II-B
// claim that ESLURM keeps user requests sub-second at 20K+ nodes while
// a centralized RM degrades super-linearly with the client population.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "frontend/rpc.hpp"
#include "frontend/snapshot_cache.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "rm/resource_manager.hpp"
#include "sim/engine.hpp"

namespace eslurm::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace eslurm::telemetry

namespace eslurm::rm {
class EslurmRm;
}  // namespace eslurm::rm

namespace eslurm::frontend {

/// Message types of the front-end protocol (range 300-399).
inline constexpr net::MessageType kMsgRpcRequest = 300;   ///< client -> master
inline constexpr net::MessageType kMsgRpcResponse = 301;  ///< server -> client
inline constexpr net::MessageType kMsgReadRequest = 302;  ///< client -> satellite
inline constexpr net::MessageType kMsgCacheRefresh = 303; ///< satellite -> master
inline constexpr net::MessageType kMsgRefreshReply = 304; ///< master -> satellite

/// How one RPC attempt ended, as seen by the client.
enum class RpcOutcome : std::uint8_t {
  Ok,           ///< served (by master or satellite)
  RetryHint,    ///< shed under load; client should back off and retry
  Refused,      ///< hard-refused (mutating lane full)
  Unavailable,  ///< master down, endpoint dead, or request timed out
};

const char* rpc_outcome_name(RpcOutcome outcome);

struct GatewayConfig {
  /// Concurrent in-flight requests the master accepts (both lanes).
  int master_connection_cap = 1024;
  /// Bounded admission queues behind the connection cap.  Mutating
  /// requests queue (and drain) ahead of reads; a full read queue sheds
  /// with a retry hint, a full mutating queue hard-refuses.
  std::size_t mutating_queue_limit = 1024;
  std::size_t read_queue_limit = 4096;
  /// Concurrent in-flight reads per satellite.
  int satellite_connection_cap = 512;
  /// Route read queries to serviceable satellites (ESLURM only).
  bool satellite_reads = true;
  /// Snapshot freshness window of the satellite read caches.
  SimTime cache_ttl = seconds(2);
  /// Server-side deadline: an admitted request still unresolved after
  /// this long resolves Unavailable (daemon crashed mid-request, lost
  /// response, ...).
  SimTime request_timeout = seconds(45);
  /// After a send to a satellite fails, leave it alone for this long.
  SimTime satellite_retry_cooldown = seconds(30);
  /// Server->client RPC responses go through a ReliableTransport whenever
  /// the fronted RM's `use_reliable_transport` is on: a response lost to
  /// network chaos is retransmitted instead of failing a request the
  /// server already did the work for.  Requests keep raw sends -- the
  /// client-side retry/backoff policy already covers them.
  std::uint64_t transport_seed = 1;
};

/// One user RPC's terminal notification.  The latency is measured by the
/// caller (issue time -> callback time); the gateway only reports how the
/// attempt ended.
using ResponseCallback = std::function<void(RpcOutcome)>;

class Gateway {
 public:
  Gateway(sim::Engine& engine, net::Network& network, rm::ResourceManager& rm,
          GatewayConfig config);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Issues one RPC of `kind` from compute/login node `source`.  `done`
  /// is invoked exactly once at some strictly later simulated time.
  void issue(RpcKind kind, net::NodeId source, ResponseCallback done);

  const GatewayConfig& config() const { return config_; }

  // --- introspection ---------------------------------------------------
  int master_inflight() const { return master_inflight_; }
  std::size_t mutating_queue_depth() const { return mutating_queue_.size(); }
  std::size_t read_queue_depth() const { return read_queue_.size(); }
  std::size_t pending_count() const { return pending_.size(); }

  std::uint64_t served_by_master() const { return served_by_master_; }
  std::uint64_t served_by_satellite() const { return served_by_satellite_; }
  std::uint64_t cache_refreshes() const { return refreshes_; }
  std::uint64_t shed_reads() const { return shed_reads_; }
  std::uint64_t refused_mutating() const { return refused_mutating_; }
  std::uint64_t refused_master_down() const { return refused_master_down_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t send_failures() const { return send_failures_; }
  /// Responses that arrived after their request had already been resolved
  /// (timed out / failed over); counted, then dropped.
  std::uint64_t late_responses() const { return late_responses_; }

  /// Fraction of successfully served requests that never cost the master
  /// an RPC (satellite-served minus the coalesced refresh traffic).
  /// Guarded: no served requests -> 0.0.
  double master_offload() const;

  /// Aggregate snapshot-cache hit ratio over all satellites.  Guarded:
  /// no lookups -> 0.0.
  double cache_hit_ratio() const;
  std::size_t satellite_count() const { return sats_.size(); }
  const SnapshotCache& cache(std::size_t sat_index) const {
    return sats_[sat_index].cache;
  }

 private:
  enum class Stage : std::uint8_t { Queued, MasterInFlight, SatelliteInFlight };

  struct Pending {
    RpcKind kind = RpcKind::JobInfo;
    net::NodeId source = net::kNoNode;
    ResponseCallback done;
    Stage stage = Stage::Queued;
    std::size_t sat_index = SIZE_MAX;
    SimTime issued_at = 0;
    sim::EventId watchdog = sim::kInvalidEvent;
  };

  /// Coalesced refresh of one (satellite, kind) snapshot: the first miss
  /// sends the refresh, later misses just wait on it.
  struct Refresh {
    bool in_flight = false;
    std::vector<std::uint64_t> waiters;  ///< pending request ids
    sim::EventId watchdog = sim::kInvalidEvent;
  };

  struct SatelliteEndpoint {
    net::NodeId node = net::kNoNode;
    int inflight = 0;
    SimTime cooldown_until = 0;
    SnapshotCache cache;
    std::array<Refresh, kRpcKindCount> refresh{};

    explicit SatelliteEndpoint(net::NodeId n, SimTime ttl) : node(n), cache(ttl) {}
  };

  void route_master(std::uint64_t id);
  void send_to_master(std::uint64_t id);
  void drain_master_queues();
  void shed(std::uint64_t id, RpcOutcome outcome);
  /// Round-robin pick of a serviceable satellite with a free slot;
  /// SIZE_MAX when none qualifies.
  std::size_t pick_satellite();
  void send_to_satellite(std::uint64_t id, std::size_t sat_index);
  void on_master_request(const net::Message& msg);
  void on_satellite_read(const net::Message& msg);
  void serve_from_cache(std::size_t sat_index, std::uint64_t id);
  void begin_refresh(std::size_t sat_index, RpcKind kind);
  void finish_refresh(std::size_t sat_index, RpcKind kind, bool ok,
                      std::size_t entries);
  void on_refresh_request(const net::Message& msg);
  void resolve(std::uint64_t id, RpcOutcome outcome);
  void arm_watchdog(std::uint64_t id);
  /// Listing size of a read query's snapshot right now.
  std::size_t live_entries(RpcKind kind) const;
  std::size_t response_bytes(RpcKind kind, std::size_t entries) const;
  void publish_queue_depths();

  sim::Engine& engine_;
  net::Network& net_;
  rm::ResourceManager& rm_;
  rm::EslurmRm* eslurm_;  ///< non-null when reads can go to satellites
  GatewayConfig config_;
  std::unique_ptr<net::ReliableTransport> transport_;  ///< response channel

  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;

  int master_inflight_ = 0;
  std::deque<std::uint64_t> mutating_queue_;
  std::deque<std::uint64_t> read_queue_;

  std::vector<SatelliteEndpoint> sats_;
  std::size_t rr_next_ = 0;

  std::uint64_t served_by_master_ = 0;
  std::uint64_t served_by_satellite_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t shed_reads_ = 0;
  std::uint64_t refused_mutating_ = 0;
  std::uint64_t refused_master_down_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t send_failures_ = 0;
  std::uint64_t late_responses_ = 0;
};

}  // namespace eslurm::frontend
