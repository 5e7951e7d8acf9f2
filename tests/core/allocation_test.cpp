// Zero-allocation steady-state checks for the event core.
//
// This TU replaces the global operator new/delete with counting versions
// (which is why it lives in its own test binary: the override is
// process-wide).  Each test warms a workload up until every pool and
// scratch buffer has reached its plateau, then turns the counter on and
// asserts that the steady-state loop performs no heap allocation at all
// (one test instead bounds the bytes a handler registration allocates):
//   * engine: pooled event slots + inline captures, so schedule/execute
//     cycles touch no allocator;
//   * network: recycled SendOp slots, a flat handler table and inline
//     {this, op} event captures across all legs of a send; a watched
//     node's socket series is a bounded summary, not a point list;
//   * transport: one pooled send op per reliable send (held through
//     retransmit backoffs and marked once processed) and inline message
//     bodies, so a reliable round trip -- retransmits included -- hashes
//     nothing and allocates nothing (one test also checks that reliable
//     sends to many receivers grow no per-peer state);
//   * tree broadcast through the transport: recycled broadcast state
//     (position-indexed relay contexts, the child-slot arena, delivered
//     bitmap), also when a dead relay's subtree is adopted every round;
//   * "policy" scheduler pass plus limit audit: dense user/account
//     tables, cached fair-tree child lists and reused usage snapshots;
//   * a whole ESLURM world (satellite dispatch, HA snapshots): every
//     event capture fits the engine's inline budget.
//
// Under ASan/TSan the runtime owns operator new, so the hook is compiled
// out and the tests skip (the sanitizer jobs cover memory correctness;
// this binary covers allocation count in plain builds).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "comm/tree.hpp"
#include "core/experiment.hpp"
#include "net/chaos.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "rm/ha_master.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ESLURM_ALLOC_HOOK 0
#endif
#if !defined(ESLURM_ALLOC_HOOK) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ESLURM_ALLOC_HOOK 0
#endif
#endif
#ifndef ESLURM_ALLOC_HOOK
#define ESLURM_ALLOC_HOOK 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

/// RAII window: allocations (and their bytes) are counted only while one
/// of these is live.
class CountingScope {
 public:
  CountingScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_bytes.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  static std::uint64_t count() { return g_allocations.load(std::memory_order_relaxed); }
  static std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }
};

}  // namespace

#if ESLURM_ALLOC_HOOK

namespace {

void note_allocation(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  note_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  note_allocation(size);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // ESLURM_ALLOC_HOOK

namespace eslurm {
namespace {

constexpr net::MessageType kPing = 7;
constexpr net::MessageType kPong = 8;

TEST(ZeroAllocation, EngineSteadyStateChurn) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  // 64 self-rescheduling chains, the bench_engine churn shape.
  struct Chain {
    sim::Engine& engine;
    SimTime period;
    std::uint64_t fired = 0;
    void fire() {
      ++fired;
      engine.schedule_after(period, [this] { fire(); });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(64);
  for (int c = 0; c < 64; ++c)
    chains.push_back(Chain{engine, microseconds(10 + c)});
  for (auto& chain : chains) chain.fire();

  engine.run_until(milliseconds(10));  // warm-up: pool + heap reach capacity
  const std::size_t warm_capacity = engine.event_pool_capacity();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(milliseconds(200));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "engine steady state must not touch the allocator";
  EXPECT_EQ(engine.event_pool_capacity(), warm_capacity);
  EXPECT_EQ(engine.heap_fallback_events(), 0u)
      << "all engine-internal captures must fit the inline buffer";
  EXPECT_GT(engine.executed_events(), 10'000u);  // the loop actually ran
}

TEST(ZeroAllocation, EngineCancelRecyclesSlots) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  // Watchdog shape: arm far in the future, cancel, re-arm every cycle.
  struct Watchdog {
    sim::Engine& engine;
    sim::EventId pending = sim::kInvalidEvent;
    void cycle() {
      if (pending != sim::kInvalidEvent) engine.cancel(pending);
      pending = engine.schedule_after(hours(10), [] {});
      engine.schedule_after(microseconds(25), [this] { cycle(); });
    }
  };
  Watchdog dog{engine};
  dog.cycle();
  engine.run_until(milliseconds(5));

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(milliseconds(100));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "arm/cancel cycles must recycle slots, not allocate";
}

TEST(ZeroAllocation, EngineSteadyStateFarTier) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  // Both far-tier populations: watchdogs armed 200 s ahead and cancelled
  // one work step later (dead wheel entries, swept by compactions), and
  // job ends two hours ahead that re-arm as they fire (live entries that
  // ride the wheel for many laps, then migrate into the heap).
  struct Work {
    sim::Engine& engine;
    sim::EventId armed[4] = {};
    void cycle() {
      for (sim::EventId& id : armed) {
        if (id != sim::kInvalidEvent) engine.cancel(id);
        id = engine.schedule_after(seconds(200), [] {});
      }
      engine.schedule_after(milliseconds(50), [this] { cycle(); });
    }
  };
  struct Job {
    sim::Engine& engine;
    std::uint64_t ends = 0;
    void end() {
      ++ends;
      engine.schedule_after(hours(2), [this] { end(); });
    }
  };
  Work work{engine};
  std::vector<Job> jobs;
  jobs.reserve(64);
  for (int j = 0; j < 64; ++j) jobs.push_back(Job{engine});
  for (int j = 0; j < 64; ++j)
    engine.schedule_after(seconds(113 * j + 7), [job = &jobs[j]] { job->end(); });
  work.cycle();

  engine.run_until(hours(4));  // warm-up: two job periods
  const std::size_t warm_capacity = engine.event_pool_capacity();
  const std::uint64_t warm_compactions = engine.compactions();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(hours(6));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "the far tier must recycle its blocks, not allocate";
  EXPECT_EQ(engine.event_pool_capacity(), warm_capacity);
  EXPECT_GT(engine.compactions(), warm_compactions);  // the wheel was swept
  std::uint64_t ends = 0;
  for (const Job& job : jobs) ends += job.ends;
  EXPECT_EQ(ends, 64u * 3);  // every job ended in each of the three periods
}

TEST(AllocationBytes, HandlerRegistrationIsIndependentOfNodeCount) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // One handler serves a type on every node, so registering one costs
  // the same on a 102,400-node network as on a 4-node one: a few small
  // table entries, no row sized to the node count (3.2 MB here).
  sim::Engine engine;
  net::Network network(engine, 102'400, net::LinkModel{}, Rng(42));
  net::ReliableTransport transport(network, Rng(43));

  std::uint64_t bytes;
  {
    CountingScope scope;
    network.register_handler(kPing, [](net::NodeId, const net::Message&) {});
    network.register_handler(kPong, [](net::NodeId, const net::Message&) {});
    bytes = CountingScope::bytes();
  }
  EXPECT_LT(bytes, 1024u);
}

TEST(AllocationBytes, ReliableSendsToManyReceiversAllocateOnlyTheSendOpPool) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // N senders each send to a distinct receiver.  A raw burst of the same
  // shape first grows the network's send-op and event pools to their
  // plateau; the burst sent reliably then allocates nothing: the
  // transport keeps no per-receiver or per-sender state.
  constexpr net::NodeId kPairs = 512;
  sim::Engine engine;
  net::LinkModel model;
  model.jitter_frac = 0.0;  // both bursts replay the same timing
  net::Network network(engine, 2 * kPairs, model, Rng(42));
  net::ReliableTransport transport(network, Rng(43));
  std::uint64_t processed = 0;
  network.register_handler(kPing, [&processed](net::NodeId, const net::Message&) { ++processed; });
  const auto burst = [&](bool reliable) {
    for (net::NodeId i = 0; i < kPairs; ++i) {
      net::Message msg;
      msg.type = kPing;
      msg.bytes = 64;
      if (reliable) {
        transport.send(i, kPairs + i, std::move(msg));
      } else {
        network.send(i, kPairs + i, std::move(msg));
      }
    }
    engine.run();
  };
  burst(/*reliable=*/false);
  const std::size_t warm_ops = network.send_op_pool_capacity();

  std::uint64_t bytes;
  {
    CountingScope scope;
    burst(/*reliable=*/true);
    bytes = CountingScope::bytes();
  }
  EXPECT_EQ(bytes, 0u) << "reliable sends must not grow per-peer transport state";
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(processed, 2u * kPairs);
  EXPECT_EQ(transport.sends(), kPairs);
}

TEST(ZeroAllocation, NetworkSteadyStatePingPong) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  network.register_handler(kPing, [](net::NodeId, const net::Message&) {});

  // Completion-driven ping chain: each ack immediately launches the next
  // send, so the op pool and event pool stay at their plateau.
  struct Pinger {
    net::Network& network;
    std::uint64_t sent = 0;
    void fire() {
      ++sent;
      net::Message msg;
      msg.type = kPing;
      msg.bytes = 64;
      network.send(0, 1, std::move(msg), /*timeout=*/0, [this](bool) { fire(); });
    }
  };
  Pinger pinger{network};
  pinger.fire();
  engine.run_until(milliseconds(50));  // warm-up
  const std::size_t warm_ops = network.send_op_pool_capacity();
  const std::uint64_t warm_sent = pinger.sent;

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(1));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a full send/deliver/ack exchange must recycle "
                              "its op slot and event slots";
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_GT(pinger.sent, warm_sent + 100);  // traffic actually flowed
  EXPECT_EQ(network.failed_sends(), 0u);
}

TEST(ZeroAllocation, WatchedSocketSeriesSteadyState) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // NetworkSteadyStatePingPong with both endpoints watched: every socket
  // open and close records into a bounded running summary, so the
  // series stops allocating once its peak stack has reached the peak
  // socket count.
  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  network.watch_sockets(0);
  network.watch_sockets(1);
  network.register_handler(kPing, [](net::NodeId, const net::Message&) {});

  struct Pinger {
    net::Network& network;
    std::uint64_t sent = 0;
    void fire() {
      ++sent;
      net::Message msg;
      msg.type = kPing;
      msg.bytes = 64;
      network.send(0, 1, std::move(msg), /*timeout=*/0, [this](bool) { fire(); });
    }
  };
  Pinger pinger{network};
  pinger.fire();
  engine.run_until(milliseconds(50));  // warm-up
  const std::size_t warm_records = network.socket_series(0).size();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(1));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "recording a watched node's sockets must not grow "
                              "with the number of messages";
  EXPECT_GT(network.socket_series(0).size(), warm_records + 200);  // it kept recording
  EXPECT_EQ(network.socket_series(0).max_value(), 1.0);
  EXPECT_EQ(network.failed_sends(), 0u);
}

TEST(ZeroAllocation, TransportSteadyStatePingPong) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  net::ReliableTransport transport(network, Rng(43));

  // Node 0 pings node 1, whose handler pongs back; each pong launches
  // the next ping.  The body rides inline in the message.
  struct Round {
    std::uint64_t n;
  };
  struct PingPong {
    net::ReliableTransport& transport;
    std::uint64_t rounds = 0;
    std::uint64_t failures = 0;
    void send(net::NodeId from, net::NodeId to, net::MessageType type, std::uint64_t n) {
      net::Message msg;
      msg.type = type;
      msg.bytes = 64;
      msg.payload = Round{n};
      transport.send(from, to, std::move(msg), /*timeout=*/0, [this](bool ok) {
        if (!ok) ++failures;
      });
    }
  };
  PingPong pp{transport};
  network.register_handler(kPing, [&pp](net::NodeId, const net::Message& m) {
    pp.send(1, 0, kPong, m.body<Round>().n);
  });
  network.register_handler(kPong, [&pp](net::NodeId, const net::Message& m) {
    ++pp.rounds;
    pp.send(0, 1, kPing, m.body<Round>().n + 1);
  });
  pp.send(0, 1, kPing, 0);
  engine.run_until(milliseconds(50));  // warm-up
  const std::size_t warm_ops = network.send_op_pool_capacity();
  const std::uint64_t warm_rounds = pp.rounds;

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(1));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a reliable send, its dedup check and its "
                              "completion must not touch the allocator";
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_GT(pp.rounds, warm_rounds + 100);  // traffic actually flowed
  EXPECT_EQ(pp.failures, 0u);
  EXPECT_EQ(transport.duplicates_suppressed(), 0u);
}

TEST(ZeroAllocation, TransportRetransmitSteadyState) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // The ping-pong above with a fifth of all message and ack legs
  // dropped: failed attempts wait out a backoff and relaunch their own
  // send op, and lost acks make the receiver suppress retransmits.
  sim::Engine engine;
  net::Network network(engine, 4, net::LinkModel{}, Rng(42));
  net::ChaosInjector chaos(engine, 4, Rng(44));
  net::ChaosPlan plan;
  plan.ambient(/*drop=*/0.2);
  chaos.set_plan(std::move(plan));
  network.set_chaos(&chaos);
  net::TransportOptions options;
  options.rto_initial = milliseconds(1);
  options.rto_max = milliseconds(8);
  options.max_retries = 40;
  net::ReliableTransport transport(network, Rng(43), options);

  struct PingPong {
    net::ReliableTransport& transport;
    std::uint64_t rounds = 0;
    std::uint64_t failures = 0;
    void send(net::NodeId from, net::NodeId to, net::MessageType type) {
      net::Message msg;
      msg.type = type;
      msg.bytes = 64;
      transport.send(from, to, std::move(msg), milliseconds(2), [this](bool ok) {
        if (!ok) ++failures;
      });
    }
  };
  PingPong pp{transport};
  network.register_handler(kPing,
                           [&pp](net::NodeId, const net::Message&) { pp.send(1, 0, kPong); });
  network.register_handler(kPong, [&pp](net::NodeId, const net::Message&) {
    ++pp.rounds;
    pp.send(0, 1, kPing);
  });
  pp.send(0, 1, kPing);
  engine.run_until(seconds(1));  // warm-up
  const std::uint64_t warm_rounds = pp.rounds;
  const std::uint64_t warm_retransmits = transport.retransmits();

  std::uint64_t allocated;
  {
    CountingScope scope;
    engine.run_until(seconds(5));
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a retransmit, its backoff and its relaunch must "
                              "not touch the allocator";
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_GT(pp.rounds, warm_rounds + 100);  // traffic actually flowed
  EXPECT_GT(transport.retransmits(), warm_retransmits + 100);
  EXPECT_GT(transport.duplicates_suppressed(), 0u);
  EXPECT_EQ(pp.failures, 0u);
}

TEST(ZeroAllocation, TreeBroadcastThroughTransport) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  constexpr std::size_t kTargets = 4096;
  sim::Engine engine;
  // No jitter: every broadcast replays the same timing, so the pools'
  // high-water marks are reached by the first one.
  net::LinkModel model;
  model.jitter_frac = 0.0;
  net::Network network(engine, kTargets + 1, model, Rng(42));
  net::ReliableTransport transport(network, Rng(43));
  comm::TreeBroadcaster tree(network, "tree", &transport);

  std::vector<net::NodeId> list(kTargets);
  for (std::size_t i = 0; i < kTargets; ++i) list[i] = static_cast<net::NodeId>(i + 1);
  const auto targets = std::make_shared<const std::vector<net::NodeId>>(std::move(list));
  const comm::BroadcastOptions options;

  comm::BroadcastResult last;
  auto broadcast_once = [&] {
    tree.broadcast(0, targets, options,
                   [out = &last](const comm::BroadcastResult& r) { *out = r; });
    engine.run();
  };
  broadcast_once();  // warm-up: state, channels and pools reach capacity
  broadcast_once();
  const std::size_t warm_ops = network.send_op_pool_capacity();
  const std::size_t warm_events = engine.event_pool_capacity();

  std::uint64_t allocated;
  {
    CountingScope scope;
    broadcast_once();
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a steady-state tree broadcast through the "
                              "transport must recycle all of its state";
  EXPECT_EQ(last.delivered, kTargets);
  EXPECT_EQ(last.unreachable, 0u);
  EXPECT_EQ(network.send_op_pool_capacity(), warm_ops);
  EXPECT_EQ(engine.event_pool_capacity(), warm_events);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
  EXPECT_EQ(transport.sends(), 3 * 2 * kTargets);  // one relay + one done per target
}

TEST(ZeroAllocation, TreeBroadcastWithRepairs) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // The broadcast above with the root's first child -- an internal relay
  // at width 50 -- dead: every round retries it through the transport,
  // declares it unreachable and adopts its subtree, appending the new
  // children's slots to the recycled slot arena.
  constexpr std::size_t kTargets = 4096;
  constexpr net::NodeId kDeadRelay = 1;
  sim::Engine engine;
  net::LinkModel model;
  model.jitter_frac = 0.0;
  net::Network network(engine, kTargets + 1, model, Rng(42));
  network.set_liveness([](net::NodeId n) { return n != kDeadRelay; });
  net::ReliableTransport transport(network, Rng(43));
  comm::TreeBroadcaster tree(network, "tree", &transport);

  std::vector<net::NodeId> list(kTargets);
  for (std::size_t i = 0; i < kTargets; ++i) list[i] = static_cast<net::NodeId>(i + 1);
  const auto targets = std::make_shared<const std::vector<net::NodeId>>(std::move(list));
  const comm::BroadcastOptions options;

  comm::BroadcastResult last;
  auto broadcast_once = [&] {
    tree.broadcast(0, targets, options,
                   [out = &last](const comm::BroadcastResult& r) { *out = r; });
    engine.run();
  };
  broadcast_once();  // warm-up: state, channels and pools reach capacity
  broadcast_once();
  const std::uint64_t warm_repairs = tree.total_repairs();

  std::uint64_t allocated;
  {
    CountingScope scope;
    broadcast_once();
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a steady-state tree broadcast that adopts a subtree "
                              "must recycle all of its state";
  EXPECT_EQ(last.delivered, kTargets - 1);
  EXPECT_EQ(last.unreachable, 1u);
  EXPECT_EQ(last.repairs, 1);
  EXPECT_EQ(tree.total_repairs(), warm_repairs + 1);
  EXPECT_EQ(engine.heap_fallback_events(), 0u);
}

TEST(ZeroAllocation, PolicySchedulerPassAndAudit) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // Two-level account tree: a division with two projects, plus a project
  // straight under the root.  A boosted QoS with a one-job per-user cap
  // puts held jobs at the head of the queue, so every pass walks the
  // limit checks and their longest reason tags.
  sched::policy::PolicyConfig config;
  config.qos.add(sched::policy::QosClass{
      .name = "capped", .priority_boost = 1000.0, .max_running_jobs_per_user = 1});
  config.accounts.add_account("division");
  config.accounts.add_account("project-a", "division", 2.0,
                              sched::policy::AccountLimits{.max_nodes = 64});
  config.accounts.add_account("project-b", "division");
  config.accounts.add_account("project-c");
  sched::Scheduler scheduler = sched::make_scheduler("policy", 256, config);
  sched::policy::PolicyState& policy = *scheduler.policy();

  const char* const projects[] = {"project-a", "project-b", "project-c"};
  sched::JobPool pool;
  sched::JobId next = 1;
  for (int u = 0; u < 12; ++u) {
    for (int k = 0; k < 4; ++k) {
      sched::Job job;
      job.id = next++;
      job.user = "user-" + std::to_string(u);
      job.account = projects[u % 3];
      job.qos = k == 1 ? "capped" : "";
      job.nodes = 1 + (u + k) % 8;
      job.submit_time = seconds(static_cast<SimTime>(job.id));
      job.user_estimate = hours(1);
      job.actual_runtime = minutes(30);
      pool.submit(job);
      if (k == 0) {  // each user's first job is running
        pool.mark_starting(job.id);
        pool.mark_running(job.id, minutes(1));
        policy.accounts().charge(job, 3600.0 * job.nodes * (u + 1), minutes(1));
      }
    }
  }

  // Warm-up: users are registered, the fair tree's child lists are built
  // and every scratch buffer reaches its plateau.
  for (int pass = 0; pass < 3; ++pass) {
    scheduler.schedule(pool, 0, minutes(10 + pass));
    policy.audit(pool);
  }
  const std::uint64_t warm_holds = policy.limit_holds();

  std::uint64_t allocated;
  std::size_t started;
  {
    CountingScope scope;
    started = scheduler.schedule(pool, 0, minutes(20)).size();
    policy.audit(pool);
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a steady-state policy pass and its limit audit "
                              "must not touch the allocator";
  EXPECT_EQ(started, 0u);
  EXPECT_GT(policy.limit_holds(), warm_holds);  // the limit checks actually ran
  EXPECT_EQ(policy.limit_violations(), 0u);
}

TEST(ZeroAllocation, PolicySchedulerShadowPass) {
  if (!ESLURM_ALLOC_HOOK) GTEST_SKIP() << "allocation hook disabled under sanitizers";

  // Free nodes behind a blocked head: every pass ranks the queue, finds
  // the head's shadow among the running jobs' releases, then walks the
  // backfill candidates.  The wide jobs never fit and the narrow ones are
  // held by their QoS's one-job cap; ranked last by their negative boost,
  // they are all reached by the backfill walk, after the shadow.
  sched::policy::PolicyConfig config;
  config.qos.add(sched::policy::QosClass{
      .name = "capped", .priority_boost = -5000.0, .max_running_jobs_per_user = 1});
  config.accounts.add_account("division");
  config.accounts.add_account("project-a", "division");
  config.accounts.add_account("project-b");
  sched::Scheduler scheduler = sched::make_scheduler("policy", 256, config);
  sched::policy::PolicyState& policy = *scheduler.policy();

  constexpr int kUsers = 16;
  constexpr int kFreeNodes = 16;
  sched::JobPool pool;
  sched::JobId next = 1;
  for (int u = 0; u < kUsers; ++u) {
    const auto add = [&](int nodes, const char* qos) {
      sched::Job job;
      job.id = next++;
      job.user = "user-" + std::to_string(u);
      job.account = u % 2 ? "project-a" : "project-b";
      job.qos = qos;
      job.nodes = nodes;
      job.submit_time = seconds(static_cast<SimTime>(job.id));
      job.user_estimate = hours(1 + u % 5);
      job.actual_runtime = minutes(30);
      pool.submit(job);
      return job.id;
    };
    const sched::JobId running = add(15, "");
    pool.mark_starting(running);
    pool.mark_running(running, minutes(u));
    add(64, "");
    add(2, "capped");
  }

  for (int pass = 0; pass < 3; ++pass) {
    scheduler.schedule(pool, kFreeNodes, minutes(30 + pass));
    policy.audit(pool);
  }
  const std::uint64_t warm_holds = policy.limit_holds();

  std::uint64_t allocated;
  std::size_t started;
  {
    CountingScope scope;
    started = scheduler.schedule(pool, kFreeNodes, minutes(40)).size();
    policy.audit(pool);
    allocated = CountingScope::count();
  }
  EXPECT_EQ(allocated, 0u) << "a steady-state policy pass that computes the EASY "
                              "shadow must not touch the allocator";
  EXPECT_EQ(started, 0u);
  EXPECT_EQ(policy.limit_holds() - warm_holds, static_cast<std::uint64_t>(kUsers));
  EXPECT_EQ(policy.limit_violations(), 0u);
}

TEST(ZeroAllocation, EslurmWorldEventsFitInline) {
  // A small ESLURM world with two satellites and HA: the master's
  // subtask sends and the snapshot writes are events whose captures sit
  // closest to the engine's inline budget.  None may take the heap
  // fallback.  (Promotion moves a whole state image and may; no master
  // dies here.)
  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 256;
  config.satellite_count = 2;
  config.horizon = hours(1);
  config.rm_config.ha.enabled = true;
  config.rm_config.ha.snapshot_interval = minutes(5);
  core::Experiment experiment(config);

  std::vector<sched::Job> jobs;
  for (int i = 0; i < 20; ++i) {
    sched::Job job;
    job.id = static_cast<sched::JobId>(1 + i);
    job.user = "u";
    job.nodes = 128;
    job.cores = job.nodes * 12;
    job.submit_time = minutes(1 + 2 * i);
    job.actual_runtime = minutes(1);
    job.user_estimate = minutes(2);
    jobs.push_back(job);
  }
  experiment.submit_trace(jobs);
  experiment.run();

  std::uint64_t satellite_tasks = 0;
  for (const auto& report : experiment.eslurm()->satellite_reports())
    satellite_tasks += report.tasks_received;
  EXPECT_GT(satellite_tasks, 0u);  // the master dispatched through satellites
  EXPECT_GT(experiment.eslurm()->ha()->snapshots_taken(), 0u);
  EXPECT_EQ(experiment.report().jobs_finished, jobs.size());
  EXPECT_EQ(experiment.engine().heap_fallback_events(), 0u);
}

}  // namespace
}  // namespace eslurm
