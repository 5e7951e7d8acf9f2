#include "frontend/gateway.hpp"

#include <algorithm>
#include <utility>

#include "rm/eslurm_rm.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::frontend {

namespace {

/// Wire bodies of the front-end protocol.  Requests carry the gateway's
/// pending-id so responses and failures resolve the right entry.
struct RequestBody {
  std::uint64_t id = 0;
  RpcKind kind = RpcKind::JobInfo;
};

struct RefreshBody {
  std::uint32_t sat_index = 0;
  RpcKind kind = RpcKind::QueryQueue;
};

struct RefreshReplyBody {
  std::uint32_t sat_index = 0;
  RpcKind kind = RpcKind::QueryQueue;
  std::size_t entries = 0;
};

std::size_t kind_index(RpcKind kind) { return static_cast<std::size_t>(kind); }

/// Shedding happens at the gateway before any master work: the client
/// only pays a local round trip to the front door.
constexpr SimTime kShedDelay = milliseconds(1);

}  // namespace

const char* rpc_outcome_name(RpcOutcome outcome) {
  switch (outcome) {
    case RpcOutcome::Ok: return "ok";
    case RpcOutcome::RetryHint: return "retry-hint";
    case RpcOutcome::Refused: return "refused";
    case RpcOutcome::Unavailable: return "unavailable";
  }
  return "unknown";
}

Gateway::Gateway(sim::Engine& engine, net::Network& network,
                 rm::ResourceManager& rm, GatewayConfig config)
    : engine_(engine),
      net_(network),
      rm_(rm),
      eslurm_(dynamic_cast<rm::EslurmRm*>(&rm)),
      config_(config) {
  if (rm_.config().use_reliable_transport) {
    transport_ = std::make_unique<net::ReliableTransport>(
        net_, Rng(derive_seed(config_.transport_seed, 0xF3)), net::TransportOptions{},
        "frontend");
  }
  // Requests and refreshes go to the master, reads and refresh replies
  // to a satellite.  A refresh names its satellite; a read finds it from
  // its pending entry.
  net_.register_handler(kMsgRpcRequest,
                        [this](net::NodeId, const net::Message& m) { on_master_request(m); });
  net_.register_handler(kMsgCacheRefresh,
                        [this](net::NodeId, const net::Message& m) { on_refresh_request(m); });

  if (eslurm_ && config_.satellite_reads) {
    const auto& satellites = rm_.deployment().satellites;
    sats_.reserve(satellites.size());
    for (const net::NodeId node : satellites) sats_.emplace_back(node, config_.cache_ttl);
    net_.register_handler(kMsgReadRequest,
                          [this](net::NodeId, const net::Message& m) { on_satellite_read(m); });
    net_.register_handler(kMsgRefreshReply, [this](net::NodeId, const net::Message& m) {
      const auto& body = m.body<RefreshReplyBody>();
      finish_refresh(body.sat_index, body.kind, true, body.entries);
    });
  }

  // Clients consume their responses in the send-completion callback; a
  // no-op handler keeps the delivery from being logged as a drop (and
  // counts a retransmitted reliable response as a suppressed duplicate).
  net_.register_handler(kMsgRpcResponse, [](net::NodeId, const net::Message&) {});
}

Gateway::~Gateway() {
  for (const net::MessageType type :
       {kMsgRpcRequest, kMsgRpcResponse, kMsgReadRequest, kMsgCacheRefresh, kMsgRefreshReply})
    net_.unregister_handler(type);
}

void Gateway::issue(RpcKind kind, net::NodeId source, ResponseCallback done) {
  const std::uint64_t id = next_id_++;
  Pending& p = pending_[id];
  p.kind = kind;
  p.source = source;
  p.done = std::move(done);
  p.issued_at = engine_.now();

  if (!rpc_mutating(kind) && !sats_.empty()) {
    const std::size_t sat = pick_satellite();
    if (sat != SIZE_MAX) {
      send_to_satellite(id, sat);
      return;
    }
  }
  route_master(id);
}

void Gateway::route_master(std::uint64_t id) {
  if (!rm_.master_up()) {
    ++refused_master_down_;
    shed(id, RpcOutcome::Unavailable);
    return;
  }
  Pending& p = pending_.at(id);
  if (master_inflight_ < config_.master_connection_cap) {
    send_to_master(id);
    return;
  }
  const bool mutating = rpc_mutating(p.kind);
  auto& queue = mutating ? mutating_queue_ : read_queue_;
  const std::size_t limit =
      mutating ? config_.mutating_queue_limit : config_.read_queue_limit;
  if (queue.size() < limit) {
    p.stage = Stage::Queued;
    queue.push_back(id);
    arm_watchdog(id);
    publish_queue_depths();
    return;
  }
  if (mutating) {
    ++refused_mutating_;
    shed(id, RpcOutcome::Refused);
  } else {
    ++shed_reads_;
    shed(id, RpcOutcome::RetryHint);
  }
}

void Gateway::shed(std::uint64_t id, RpcOutcome outcome) {
  engine_.schedule_after(kShedDelay, [this, id, outcome] { resolve(id, outcome); });
}

void Gateway::send_to_master(std::uint64_t id) {
  Pending& p = pending_.at(id);
  p.stage = Stage::MasterInFlight;
  ++master_inflight_;
  arm_watchdog(id);

  const RpcCost& cost = rpc_cost(p.kind);
  net::Message msg;
  msg.type = kMsgRpcRequest;
  msg.bytes = cost.request_bytes;
  msg.payload = RequestBody{id, p.kind};
  net_.send(p.source, rm_.deployment().master, std::move(msg), 0, [this, id](bool ok) {
    if (!ok) {
      ++send_failures_;
      resolve(id, RpcOutcome::Unavailable);
    }
  });
}

void Gateway::drain_master_queues() {
  while (master_inflight_ < config_.master_connection_cap) {
    std::uint64_t id = 0;
    if (!mutating_queue_.empty()) {  // mutating lane has priority
      id = mutating_queue_.front();
      mutating_queue_.pop_front();
    } else if (!read_queue_.empty()) {
      id = read_queue_.front();
      read_queue_.pop_front();
    } else {
      break;
    }
    if (!pending_.count(id)) continue;  // timed out while queued
    if (!rm_.master_up()) {
      ++refused_master_down_;
      shed(id, RpcOutcome::Unavailable);
      continue;
    }
    send_to_master(id);
  }
  publish_queue_depths();
}

std::size_t Gateway::pick_satellite() {
  const std::size_t n = sats_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_next_ + i) % n;
    const SatelliteEndpoint& sat = sats_[idx];
    if (!rm::serviceable(eslurm_->satellite_state(idx))) continue;
    if (engine_.now() < sat.cooldown_until) continue;
    if (sat.inflight >= config_.satellite_connection_cap) continue;
    rr_next_ = (idx + 1) % n;
    return idx;
  }
  return SIZE_MAX;
}

void Gateway::send_to_satellite(std::uint64_t id, std::size_t sat_index) {
  Pending& p = pending_.at(id);
  p.stage = Stage::SatelliteInFlight;
  p.sat_index = sat_index;
  ++sats_[sat_index].inflight;
  arm_watchdog(id);

  const RpcCost& cost = rpc_cost(p.kind);
  net::Message msg;
  msg.type = kMsgReadRequest;
  msg.bytes = cost.request_bytes;
  msg.payload = RequestBody{id, p.kind};
  net_.send(p.source, sats_[sat_index].node, std::move(msg), 0,
            [this, id, sat_index](bool ok) {
              if (!ok) {
                ++send_failures_;
                sats_[sat_index].cooldown_until =
                    engine_.now() + config_.satellite_retry_cooldown;
                resolve(id, RpcOutcome::Unavailable);
              }
            });
}

void Gateway::on_master_request(const net::Message& msg) {
  const auto& body = msg.body<RequestBody>();
  // A crashed slurmctld holds the socket but never answers; the request
  // is lost and the client-side watchdog fires.
  if (!rm_.master_up()) return;

  const RpcCost& cost = rpc_cost(body.kind);
  rm_.master_stats().charge_cpu_us(cost.server_cpu_us);
  const std::size_t entries = live_entries(body.kind);
  const std::size_t bytes = response_bytes(body.kind, entries);
  engine_.schedule_after(cost.handler_service, [this, id = body.id, bytes] {
    if (!rm_.master_up()) return;  // crashed while the handler ran
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      ++late_responses_;
      return;
    }
    net::Message resp;
    resp.type = kMsgRpcResponse;
    resp.bytes = bytes;
    net::send(net_, transport_.get(), rm_.deployment().master, it->second.source,
              std::move(resp), 0, [this, id](bool ok) {
                resolve(id, ok ? RpcOutcome::Ok : RpcOutcome::Unavailable);
              });
  });
}

void Gateway::on_satellite_read(const net::Message& msg) {
  const auto& body = msg.body<RequestBody>();
  const auto it = pending_.find(body.id);
  if (it == pending_.end()) {
    ++late_responses_;  // gave up / timed out before the satellite saw it
    return;
  }
  // A pending read is in flight to the satellite it was sent to.
  const std::size_t sat_index = it->second.sat_index;
  SatelliteEndpoint& sat = sats_[sat_index];
  if (sat.cache.lookup(body.kind, engine_.now())) {
    serve_from_cache(sat_index, body.id);
    return;
  }
  Refresh& refresh = sat.refresh[kind_index(body.kind)];
  refresh.waiters.push_back(body.id);
  if (!refresh.in_flight) begin_refresh(sat_index, body.kind);
}

void Gateway::serve_from_cache(std::size_t sat_index, std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    ++late_responses_;
    return;
  }
  SatelliteEndpoint& sat = sats_[sat_index];
  const RpcKind kind = it->second.kind;
  const std::size_t entries = sat.cache.entries(kind);
  // Marshalling a cached snapshot is cheap -- no scheduler locks, no
  // global state walk; this asymmetry is what makes offloading pay.
  eslurm_->satellite_stats(sat_index).charge_cpu_us(
      60.0 + 0.2 * static_cast<double>(entries));

  net::Message resp;
  resp.type = kMsgRpcResponse;
  resp.bytes = response_bytes(kind, entries);
  net::send(net_, transport_.get(), sat.node, it->second.source, std::move(resp), 0,
            [this, id](bool ok) {
              resolve(id, ok ? RpcOutcome::Ok : RpcOutcome::Unavailable);
            });
}

void Gateway::begin_refresh(std::size_t sat_index, RpcKind kind) {
  SatelliteEndpoint& sat = sats_[sat_index];
  Refresh& refresh = sat.refresh[kind_index(kind)];
  refresh.in_flight = true;
  ++refreshes_;
  refresh.watchdog =
      engine_.schedule_after(config_.request_timeout, [this, sat_index, kind] {
        sats_[sat_index].refresh[kind_index(kind)].watchdog = sim::kInvalidEvent;
        finish_refresh(sat_index, kind, false, 0);
      });

  net::Message msg;
  msg.type = kMsgCacheRefresh;
  msg.bytes = 256;
  msg.payload = RefreshBody{static_cast<std::uint32_t>(sat_index), kind};
  net_.send(sat.node, rm_.deployment().master, std::move(msg), 0,
            [this, sat_index, kind](bool ok) {
              if (!ok) {
                ++send_failures_;
                finish_refresh(sat_index, kind, false, 0);
              }
            });
}

void Gateway::finish_refresh(std::size_t sat_index, RpcKind kind, bool ok,
                             std::size_t entries) {
  SatelliteEndpoint& sat = sats_[sat_index];
  Refresh& refresh = sat.refresh[kind_index(kind)];
  if (!refresh.in_flight) return;  // late watchdog vs. reply race: first wins
  refresh.in_flight = false;
  if (refresh.watchdog != sim::kInvalidEvent) {
    engine_.cancel(refresh.watchdog);
    refresh.watchdog = sim::kInvalidEvent;
  }
  std::vector<std::uint64_t> waiters;
  waiters.swap(refresh.waiters);
  if (ok) {
    sat.cache.store(kind, engine_.now(), entries);
    for (const std::uint64_t id : waiters) serve_from_cache(sat_index, id);
  } else {
    // The satellite cannot reach the master right now; steer reads away
    // from it for a while instead of piling up more waiters.
    sat.cooldown_until = engine_.now() + config_.satellite_retry_cooldown;
    for (const std::uint64_t id : waiters) resolve(id, RpcOutcome::Unavailable);
  }
}

void Gateway::on_refresh_request(const net::Message& msg) {
  const auto& body = msg.body<RefreshBody>();
  if (!rm_.master_up()) return;  // satellite's refresh watchdog cleans up

  const RpcCost& cost = rpc_cost(body.kind);
  rm_.master_stats().charge_cpu_us(cost.server_cpu_us);
  const std::size_t entries = live_entries(body.kind);
  engine_.schedule_after(
      cost.handler_service, [this, sat_index = body.sat_index, kind = body.kind, entries] {
        if (!rm_.master_up()) return;
        if (sat_index >= sats_.size()) return;
        net::Message resp;
        resp.type = kMsgRefreshReply;
        resp.bytes = response_bytes(kind, entries);
        resp.payload = RefreshReplyBody{sat_index, kind, entries};
        net_.send(rm_.deployment().master, sats_[sat_index].node, std::move(resp), 0,
                  [this, sat_index, kind](bool ok) {
                    if (!ok) finish_refresh(sat_index, kind, false, 0);
                  });
      });
}

void Gateway::resolve(std::uint64_t id, RpcOutcome outcome) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    ++late_responses_;
    return;
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.watchdog != sim::kInvalidEvent) engine_.cancel(p.watchdog);

  switch (p.stage) {
    case Stage::MasterInFlight:
      --master_inflight_;
      drain_master_queues();
      break;
    case Stage::SatelliteInFlight:
      --sats_[p.sat_index].inflight;
      break;
    case Stage::Queued:
      break;  // the lane deque drops the stale id lazily while draining
  }

  if (outcome == RpcOutcome::Ok) {
    const bool satellite = p.stage == Stage::SatelliteInFlight;
    if (satellite) {
      ++served_by_satellite_;
    } else {
      ++served_by_master_;
    }
    if (auto* t = engine_.telemetry()) {
      t->metrics.counter("frontend.served", {{"endpoint", satellite ? "satellite" : "master"}})
          .inc();
      t->metrics
          .histogram("frontend.rpc_seconds", {{"kind", rpc_kind_name(p.kind)}})
          .observe(to_seconds(engine_.now() - p.issued_at));
    }
  } else if (auto* t = engine_.telemetry()) {
    t->metrics.counter("frontend.failed", {{"outcome", rpc_outcome_name(outcome)}}).inc();
  }

  if (p.done) p.done(outcome);
}

void Gateway::arm_watchdog(std::uint64_t id) {
  Pending& p = pending_.at(id);
  if (p.watchdog != sim::kInvalidEvent) return;  // armed while queued
  p.watchdog = engine_.schedule_after(config_.request_timeout, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    it->second.watchdog = sim::kInvalidEvent;
    ++timeouts_;
    resolve(id, RpcOutcome::Unavailable);
  });
}

std::size_t Gateway::live_entries(RpcKind kind) const {
  switch (kind) {
    case RpcKind::QueryQueue:
      return rm_.pool().pending().size() + rm_.pool().active().size();
    case RpcKind::QueryNodes:
      return static_cast<std::size_t>(rm_.total_compute_nodes());
    default:
      return 0;
  }
}

std::size_t Gateway::response_bytes(RpcKind kind, std::size_t entries) const {
  const RpcCost& cost = rpc_cost(kind);
  return cost.response_bytes_base + cost.response_bytes_per_entry * entries;
}

double Gateway::master_offload() const {
  const double served =
      static_cast<double>(served_by_master_ + served_by_satellite_);
  if (served <= 0.0) return 0.0;
  const double master_cost = static_cast<double>(served_by_master_ + refreshes_);
  return std::max(0.0, 1.0 - master_cost / served);
}

double Gateway::cache_hit_ratio() const {
  std::uint64_t hits = 0, misses = 0;
  for (const SatelliteEndpoint& sat : sats_) {
    hits += sat.cache.hits();
    misses += sat.cache.misses();
  }
  const std::uint64_t total = hits + misses;
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

void Gateway::publish_queue_depths() {
  if (auto* t = engine_.telemetry()) {
    t->metrics.gauge("frontend.read_queue_depth")
        .set(static_cast<double>(read_queue_.size()));
    t->metrics.gauge("frontend.mutating_queue_depth")
        .set(static_cast<double>(mutating_queue_.size()));
    t->metrics.gauge("frontend.master_inflight").set(static_cast<double>(master_inflight_));
  }
}

}  // namespace eslurm::frontend
