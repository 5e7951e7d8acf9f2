// Acceptance tests for the chaos + reliable-transport stack: a 4096-node
// FP-Tree broadcast under ambient message loss completes with zero lost
// deliveries and zero duplicate processing, while the same chaos defeats
// raw sends; and identical seeds give bit-identical runs even when the
// worlds execute on concurrent threads (the --jobs sweep contract).
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "cluster/cluster.hpp"
#include "comm/fp_tree.hpp"
#include "net/chaos.hpp"
#include "net/transport.hpp"

namespace eslurm::comm {
namespace {

constexpr std::size_t kTargets = 4096;

/// One self-contained world: network + chaos + (optionally) a reliable
/// transport under an FP-Tree or plain-tree broadcaster.
struct ChaosWorld {
  sim::Engine engine;
  net::LinkModel model;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;
  std::optional<net::ChaosInjector> chaos;
  std::optional<net::ReliableTransport> transport;
  cluster::StaticFailurePredictor predictor{{}};
  std::optional<FpTreeBroadcaster> fp;
  std::optional<TreeBroadcaster> raw_tree;

  explicit ChaosWorld(std::size_t targets, double drop, double duplicate,
                      bool reliable) {
    model.jitter_frac = 0.0;
    const std::size_t nodes = targets + 1;
    net.emplace(engine, nodes, model, Rng(1));
    cluster_model.emplace(engine, nodes);
    net->set_liveness(cluster_model->liveness());
    chaos.emplace(engine, nodes, Rng(7));
    net::ChaosPlan plan;
    plan.ambient(drop, duplicate);
    chaos->set_plan(std::move(plan));
    net->set_chaos(&*chaos);
    if (reliable) {
      transport.emplace(*net, Rng(9));
      fp.emplace(*net, predictor, "fp-tree", &*transport);
    } else {
      raw_tree.emplace(*net, "tree");
    }
  }

  BroadcastResult run(const BroadcastOptions& opts) {
    std::vector<net::NodeId> targets(net->node_count() - 1);
    for (std::size_t i = 0; i < targets.size(); ++i)
      targets[i] = static_cast<net::NodeId>(1 + i);
    Broadcaster& b = fp ? static_cast<Broadcaster&>(*fp)
                        : static_cast<Broadcaster&>(*raw_tree);
    std::optional<BroadcastResult> result;
    b.broadcast(0, std::move(targets), opts,
                [&](const BroadcastResult& r) { result = r; });
    engine.run();
    EXPECT_TRUE(result.has_value()) << b.name() << " never completed";
    return result.value_or(BroadcastResult{});
  }
};

TEST(ChaosBroadcast, ReliableFpTreeLosesNothingAtFivePercentDrop) {
  ChaosWorld world(kTargets, /*drop=*/0.05, /*duplicate=*/0.02,
                   /*reliable=*/true);
  std::vector<int> hits(kTargets + 1, 0);
  world.fp->set_delivery_hook(
      [&](net::NodeId n, std::uint64_t) { ++hits[n]; });
  const auto result = world.run({});
  // Every healthy node is alive, so the transport must absorb all loss:
  // nothing unreachable, nothing lost, nothing processed twice.
  EXPECT_EQ(result.delivered, kTargets);
  EXPECT_EQ(result.unreachable, 0u);
  for (net::NodeId n = 1; n <= kTargets; ++n)
    ASSERT_EQ(hits[n], 1) << "node " << n;
  EXPECT_EQ(world.transport->permanent_failures(), 0u);
  // The chaos actually bit: frames were dropped and retransmitted, and
  // duplicated/re-sent frames were suppressed as repeats of their send.
  EXPECT_GT(world.chaos->dropped(), 0u);
  EXPECT_GT(world.transport->retransmits(), 0u);
  EXPECT_GT(world.transport->duplicates_suppressed(), 0u);
}

TEST(ChaosBroadcast, RawTreeLosesMessagesUnderTheSameChaos) {
  ChaosWorld world(kTargets, /*drop=*/0.05, /*duplicate=*/0.02,
                   /*reliable=*/false);
  BroadcastOptions opts;
  opts.retries = 1;  // one connection attempt: every drop is terminal
  const auto result = world.run(opts);
  // With ~4k relay legs at 5% loss and no retransmission, some healthy
  // nodes are falsely declared unreachable and never get the payload.
  EXPECT_LT(result.delivered, kTargets);
  EXPECT_GT(result.unreachable, 0u);
  EXPECT_GT(world.chaos->dropped(), 0u);
}

TEST(ChaosBroadcast, RawTreeIgnoresRepeatedRelaysFromTheSameParent) {
  // Every leg is duplicated on the wire and 42 targets are dead.  A
  // relay's duplicate reaches a node that already has the payload; it
  // must not answer its own parent with a completion, or the parent
  // closes that child's slot before the subtree is done and the root
  // finishes (and recycles its state) while dead children are still
  // being retried, stranding live nodes below them.
  ChaosWorld world(kTargets, /*drop=*/0.0, /*duplicate=*/1.0, /*reliable=*/false);
  constexpr std::size_t kDead = 42;
  std::vector<bool> dead(kTargets + 1, false);
  for (std::size_t k = 0; k < kDead; ++k) {
    const auto node = static_cast<net::NodeId>(1 + 97 * k);
    dead[node] = true;
    world.cluster_model->fail(node);
  }
  std::vector<int> hits(kTargets + 1, 0);
  world.raw_tree->set_delivery_hook([&](net::NodeId n, std::uint64_t) { ++hits[n]; });
  const auto result = world.run({});
  EXPECT_EQ(result.delivered, kTargets - kDead);
  EXPECT_EQ(result.unreachable, kDead);
  // The dead children cost their parents three 1 s connection attempts.
  EXPECT_GE(result.elapsed(), seconds(3));
  for (net::NodeId n = 1; n <= kTargets; ++n)
    ASSERT_EQ(hits[n], dead[n] ? 0 : 1) << "node " << n;
  EXPECT_GT(world.chaos->duplicated(), 0u);
}

TEST(ChaosBroadcast, TransportTreeAdoptsTheSubtreeOfARelayKilledMidBroadcast) {
  // Drop and duplicate chaos on every leg, the tree's relay and
  // completion traffic sent through the reliable transport, and the
  // root's first child -- the relay of a 1/4 subtree at width 4 -- dies
  // right after it took the payload.  The root's watchdog adopts that
  // subtree; every target still gets the payload exactly once, and only
  // the killed relay is unreachable.
  constexpr std::size_t kNodes = 1024;
  constexpr net::NodeId kRelay = 1;
  ChaosWorld world(kNodes, /*drop=*/0.05, /*duplicate=*/0.05, /*reliable=*/true);
  TreeBroadcaster tree(*world.net, "tree", &*world.transport);
  std::vector<int> hits(kNodes + 1, 0);
  tree.set_delivery_hook([&](net::NodeId n, std::uint64_t) {
    ++hits[n];
    if (n == kRelay)
      world.engine.schedule_after(microseconds(1), [&] { world.cluster_model->fail(kRelay); });
  });
  std::vector<net::NodeId> targets(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) targets[i] = static_cast<net::NodeId>(1 + i);
  BroadcastOptions opts;
  opts.tree_width = 4;
  std::optional<BroadcastResult> result;
  tree.broadcast(0, std::move(targets), opts, [&](const BroadcastResult& r) { result = r; });
  world.engine.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(world.cluster_model->alive(kRelay));
  for (net::NodeId n = 1; n <= kNodes; ++n) ASSERT_EQ(hits[n], 1) << "node " << n;
  EXPECT_EQ(result->unreachable, 1u);
  EXPECT_GE(result->repairs, 1);
  EXPECT_GT(world.chaos->dropped(), 0u);
  EXPECT_GT(world.transport->duplicates_suppressed(), 0u);
}

TEST(ChaosBroadcast, IdenticalSeedsBitIdenticalAcrossThreads) {
  // The sweep contract: two worlds with the same seeds produce the same
  // chaos schedule and the same outcome even when run concurrently --
  // each injector owns its rng, so there is no cross-thread state.
  struct Summary {
    std::size_t delivered = 0, unreachable = 0;
    std::uint64_t dropped = 0, duplicated = 0;
    std::uint64_t retransmits = 0, suppressed = 0;
    SimTime elapsed = 0;
    bool operator==(const Summary& o) const {
      return delivered == o.delivered && unreachable == o.unreachable &&
             dropped == o.dropped && duplicated == o.duplicated &&
             retransmits == o.retransmits && suppressed == o.suppressed &&
             elapsed == o.elapsed;
    }
  };
  auto run_world = [](Summary& out) {
    ChaosWorld world(512, 0.05, 0.02, /*reliable=*/true);
    const auto result = world.run({});
    out.delivered = result.delivered;
    out.unreachable = result.unreachable;
    out.dropped = world.chaos->dropped();
    out.duplicated = world.chaos->duplicated();
    out.retransmits = world.transport->retransmits();
    out.suppressed = world.transport->duplicates_suppressed();
    out.elapsed = result.elapsed();
  };
  Summary a, b;
  std::thread ta([&] { run_world(a); });
  std::thread tb([&] { run_world(b); });
  ta.join();
  tb.join();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.delivered, 512u);
  EXPECT_GT(a.dropped, 0u);
}

}  // namespace
}  // namespace eslurm::comm
