// Behavioural tests for all five broadcast structures over the simulated
// network, with and without node failures.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>

#include "cluster/cluster.hpp"
#include "comm/fp_tree.hpp"
#include "comm/ring.hpp"
#include "comm/shared_memory.hpp"
#include "comm/star.hpp"
#include "comm/tree.hpp"

namespace eslurm::comm {
namespace {

struct CommFixture : ::testing::Test {
  static constexpr std::size_t kNodes = 200;
  std::size_t nodes = kNodes;
  sim::Engine engine;
  net::LinkModel model;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;

  void SetUp() override {
    model.jitter_frac = 0.0;
    net.emplace(engine, nodes, model, Rng(1));
    cluster_model.emplace(engine, nodes);
    net->set_liveness(cluster_model->liveness());
  }

  std::vector<NodeId> targets(std::size_t n, NodeId first = 1) {
    std::vector<NodeId> out(n);
    std::iota(out.begin(), out.end(), first);
    return out;
  }

  BroadcastResult run(Broadcaster& b, std::vector<NodeId> t, BroadcastOptions opts = {}) {
    std::optional<BroadcastResult> result;
    b.broadcast(0, std::move(t), opts, [&](const BroadcastResult& r) { result = r; });
    engine.run();
    EXPECT_TRUE(result.has_value()) << b.name() << " never completed";
    return result.value_or(BroadcastResult{});
  }
};

TEST_F(CommFixture, DestroyedBroadcasterLeavesNoHandlerOnItsTypes) {
  // A destroyed ring unregisters its hop type: a later message of that
  // type is received and acked like any type without a handler, and
  // reaches no handler that points at the dead ring.
  const net::MessageType hop_type = net->alloc_message_types(0);  // the next type
  { RingBroadcaster ring(*net); }
  net::Message msg;
  msg.type = hop_type;
  msg.bytes = 64;
  std::optional<bool> acked;
  net->send(0, 1, std::move(msg), seconds(1), [&](bool ok) { acked = ok; });
  engine.run();
  ASSERT_TRUE(acked.has_value());
  EXPECT_TRUE(*acked);
  EXPECT_EQ(net->messages_received(1), 1u);
}

TEST_F(CommFixture, TreeDeliversToAllHealthyTargets) {
  TreeBroadcaster tree(*net);
  std::vector<NodeId> seen;
  tree.set_delivery_hook([&](NodeId n, std::uint64_t) { seen.push_back(n); });
  const auto result = run(tree, targets(150));
  EXPECT_EQ(result.delivered, 150u);
  EXPECT_EQ(result.unreachable, 0u);
  EXPECT_EQ(result.repairs, 0);
  EXPECT_EQ(seen.size(), 150u);
  EXPECT_GT(result.finished, result.started);
}

TEST_F(CommFixture, TreeHandlesEmptyTargetList) {
  TreeBroadcaster tree(*net);
  const auto result = run(tree, {});
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_EQ(result.targets, 0u);
}

TEST_F(CommFixture, TreeSurvivesFailedLeaf) {
  TreeBroadcaster tree(*net);
  cluster_model->fail(150);  // with width 50 and 150 targets this is deep
  const auto result = run(tree, targets(150));
  EXPECT_EQ(result.delivered, 149u);
  EXPECT_EQ(result.unreachable, 1u);
}

TEST_F(CommFixture, TreeAdoptsSubtreeOfFailedInternalNode) {
  TreeBroadcaster tree(*net);
  BroadcastOptions opts;
  opts.tree_width = 4;  // deep tree: node at position 0 owns a big subtree
  cluster_model->fail(1);  // first target = first child of the root
  const auto result = run(tree, targets(150), opts);
  EXPECT_EQ(result.delivered, 149u);
  EXPECT_EQ(result.unreachable, 1u);
  EXPECT_GE(result.repairs, 1);
  EXPECT_GE(tree.total_repairs(), 1u);
}

TEST_F(CommFixture, TreeFailuresCostTimeouts) {
  TreeBroadcaster tree(*net);
  BroadcastOptions opts;
  opts.tree_width = 4;
  const auto clean = run(tree, targets(100), opts);
  for (NodeId n = 1; n <= 20; ++n) cluster_model->fail(n);
  const auto faulty = run(tree, targets(100), opts);
  EXPECT_EQ(faulty.delivered, 80u);
  EXPECT_EQ(faulty.unreachable, 20u);
  EXPECT_GT(faulty.elapsed(), clean.elapsed() + opts.timeout);
}

TEST_F(CommFixture, TreeAllTargetsDeadStillCompletes) {
  TreeBroadcaster tree(*net);
  for (NodeId n = 1; n <= 50; ++n) cluster_model->fail(n);
  const auto result = run(tree, targets(50));
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_EQ(result.unreachable, 50u);
}

TEST_F(CommFixture, ConcurrentTreeBroadcastsDoNotInterfere) {
  TreeBroadcaster tree(*net);
  int completions = 0;
  std::size_t delivered = 0;
  BroadcastOptions opts;
  for (int i = 0; i < 3; ++i) {
    tree.broadcast(0, targets(100), opts, [&](const BroadcastResult& r) {
      ++completions;
      delivered += r.delivered;
    });
  }
  engine.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(delivered, 300u);
}

TEST_F(CommFixture, FpTreePlacesPredictedFailuresOnLeaves) {
  cluster::StaticFailurePredictor predictor({1, 2, 3});
  FpTreeBroadcaster fp(*net, predictor);
  BroadcastOptions opts;
  opts.tree_width = 4;
  const auto result = run(fp, targets(150), opts);
  EXPECT_EQ(result.delivered, 150u);
  EXPECT_EQ(fp.trees_constructed(), 1u);
  EXPECT_EQ(fp.cumulative_stats().predicted, 3u);
  EXPECT_EQ(fp.cumulative_stats().predicted_on_leaf, 3u);
}

TEST_F(CommFixture, FpTreeBeatsPlainTreeWhenPredictedInternalNodesFail) {
  // Fail the nodes that the plain tree would use as first-level children.
  BroadcastOptions opts;
  opts.tree_width = 4;
  const auto t = targets(150);
  std::vector<NodeId> doomed;
  for_each_group(0, t.size(), opts.tree_width,
                 [&](Range g) { doomed.push_back(t[g.begin]); });
  for (NodeId n : doomed) cluster_model->fail(n);

  TreeBroadcaster plain(*net);
  const auto plain_result = run(plain, t, opts);

  cluster::StaticFailurePredictor predictor(doomed);
  FpTreeBroadcaster fp(*net, predictor);
  const auto fp_result = run(fp, t, opts);

  EXPECT_EQ(plain_result.delivered, fp_result.delivered);
  EXPECT_LT(fp_result.elapsed(), plain_result.elapsed());
  EXPECT_EQ(fp_result.repairs, 0);       // failures are all on leaves
  EXPECT_GE(plain_result.repairs, 4);    // plain tree must adopt subtrees
}

// Satellite-sized node lists: 600 targets on an 800-node cluster.
struct SatelliteListFixture : CommFixture {
  SatelliteListFixture() { nodes = 800; }
};

TEST_F(SatelliteListFixture, FpTreeFollowsPredictionFlipsBetweenBroadcasts) {
  cluster::StaticFailurePredictor predictor({5, 9});
  FpTreeBroadcaster fp(*net, predictor);

  EXPECT_EQ(run(fp, targets(600)).delivered, 600u);
  EXPECT_EQ(run(fp, targets(600)).delivered, 600u);
  EXPECT_EQ(fp.trees_constructed(), 2u);

  // Every broadcast re-reads the predictor, so a change between rounds
  // is placed by the next arrangement.
  predictor.set_predicted(42, true);
  predictor.set_predicted(9, false);
  EXPECT_EQ(run(fp, targets(600)).delivered, 600u);
  EXPECT_EQ(fp.trees_constructed(), 3u);
  EXPECT_EQ(fp.cumulative_stats().predicted, 2u + 2u + 2u);
  EXPECT_EQ(fp.cumulative_stats().predicted_on_leaf, fp.cumulative_stats().predicted);
}

TEST_F(SatelliteListFixture, FpTreeGroundTruthCountsEachBroadcast) {
  cluster::StaticFailurePredictor predictor({});
  FpTreeBroadcaster fp(*net, predictor);
  fp.set_ground_truth([this](NodeId node) { return !cluster_model->alive(node); });

  cluster_model->fail(700);  // genuinely down, outside the target list
  cluster_model->fail(17);   // genuinely down, inside it (delivery skips it)
  run(fp, targets(600));
  const std::size_t first = fp.cumulative_stats().failed_encountered;
  EXPECT_EQ(first, 1u);  // only node 17 is listed
  // Cumulative accounting advances per broadcast.
  run(fp, targets(600));
  EXPECT_EQ(fp.cumulative_stats().failed_encountered, 2 * first);
  cluster_model->fail(23);
  run(fp, targets(600));
  EXPECT_EQ(fp.cumulative_stats().failed_encountered, 2 * first + 2);
}

TEST_F(CommFixture, StarDeliversAndReportsFailures) {
  StarBroadcaster star(*net);
  for (NodeId n = 10; n < 20; ++n) cluster_model->fail(n);
  const auto result = run(star, targets(100));
  EXPECT_EQ(result.delivered, 90u);
  EXPECT_EQ(result.unreachable, 10u);
}

TEST_F(CommFixture, StarSlotLimitSerializesFailures) {
  StarBroadcaster star(*net);
  BroadcastOptions opts;
  opts.star_slots = 2;
  opts.retries = 2;
  for (NodeId n = 1; n <= 8; ++n) cluster_model->fail(n);
  const auto result = run(star, targets(8), opts);
  // 8 dead targets * 2 retries * 1s over 2 slots >= 8 seconds.
  EXPECT_GE(result.elapsed(), seconds(8));
  EXPECT_EQ(result.unreachable, 8u);
}

TEST_F(CommFixture, RingDeliversInListOrder) {
  RingBroadcaster ring(*net);
  std::vector<NodeId> order;
  ring.set_delivery_hook([&](NodeId n, std::uint64_t) { order.push_back(n); });
  const auto result = run(ring, {5, 9, 2, 7});
  EXPECT_EQ(result.delivered, 4u);
  EXPECT_EQ(order, (std::vector<NodeId>{5, 9, 2, 7}));
}

TEST_F(CommFixture, RingSkipsDeadNodesAtTimeoutCost) {
  RingBroadcaster ring(*net);
  cluster_model->fail(2);
  cluster_model->fail(3);
  const auto result = run(ring, targets(10));
  EXPECT_EQ(result.delivered, 8u);
  EXPECT_EQ(result.unreachable, 2u);
  EXPECT_GE(result.elapsed(), 2 * BroadcastOptions{}.timeout);
}

TEST_F(CommFixture, RingTimeLinearInNodeCount) {
  RingBroadcaster ring(*net);
  const auto small = run(ring, targets(20));
  const auto large = run(ring, targets(180));
  EXPECT_GT(large.elapsed(), 5 * small.elapsed());
}

TEST_F(CommFixture, SharedMemoryFlatUnderFailures) {
  SharedMemoryBroadcaster shm(*net);
  const auto clean = run(shm, targets(150));
  for (NodeId n = 1; n <= 45; ++n) cluster_model->fail(n);  // 30% failure
  const auto faulty = run(shm, targets(150));
  EXPECT_EQ(faulty.delivered, 105u);
  EXPECT_EQ(faulty.unreachable, 45u);
  // Failure should cost at most ~one timeout over the clean run.
  EXPECT_LE(faulty.elapsed(), clean.elapsed() + 2 * BroadcastOptions{}.timeout);
}

TEST_F(CommFixture, SharedMemoryBoundedByPollInterval) {
  SharedMemoryBroadcaster shm(*net);
  BroadcastOptions opts;
  opts.shm_poll_interval = seconds(4);
  const auto result = run(shm, targets(100), opts);
  EXPECT_LE(result.elapsed(), seconds(5));
  EXPECT_GE(result.elapsed(), milliseconds(100));
}

/// One broadcast structure under test; test names print its name.
struct Structure {
  const char* name;
};
void PrintTo(const Structure& structure, std::ostream* os) { *os << structure.name; }

// The lifecycle every structure shares (Broadcaster): a record per
// broadcast, recycled before the callback, and one delivery rule.
struct BroadcastLifecycle : CommFixture, ::testing::WithParamInterface<Structure> {
  cluster::StaticFailurePredictor predictor{{1}};

  std::unique_ptr<Broadcaster> make() {
    const std::string structure = GetParam().name;
    if (structure == "ring") return std::make_unique<RingBroadcaster>(*net);
    if (structure == "star") return std::make_unique<StarBroadcaster>(*net);
    if (structure == "shm") return std::make_unique<SharedMemoryBroadcaster>(*net);
    if (structure == "tree") return std::make_unique<TreeBroadcaster>(*net);
    return std::make_unique<FpTreeBroadcaster>(*net, predictor);
  }
};

TEST_P(BroadcastLifecycle, EmptyTargetListCompletesOnce) {
  const auto b = make();
  int calls = 0;
  BroadcastResult result;
  b->broadcast(0, std::vector<NodeId>{}, {}, [&](const BroadcastResult& r) {
    ++calls;
    result = r;
  });
  engine.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result.targets, 0u);
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_EQ(result.unreachable, 0u);
}

TEST_P(BroadcastLifecycle, CallbackStartsTheNextBroadcastInTheFreedSlot) {
  // The first record is recycled before its callback runs, so the second
  // broadcast takes the same slot while the first one's late acks and
  // timers are still in the engine.
  const auto b = make();
  BroadcastOptions opts;
  opts.tree_width = 3;
  std::vector<BroadcastResult> results;
  b->broadcast(0, targets(20), opts, [&](const BroadcastResult& first) {
    results.push_back(first);
    b->broadcast(0, targets(30, 50), opts,
                 [&](const BroadcastResult& second) { results.push_back(second); });
  });
  engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].broadcast_id, results[1].broadcast_id);
  EXPECT_EQ(results[0].delivered, 20u);
  EXPECT_EQ(results[1].delivered, 30u);
  EXPECT_GE(results[1].started, results[0].finished);
}

TEST_P(BroadcastLifecycle, DeliveryHookFiresOncePerTarget) {
  const auto b = make();
  std::vector<int> hits(kNodes, 0);
  std::size_t hook_calls = 0;
  b->set_delivery_hook([&](NodeId n, std::uint64_t) {
    ++hits[n];
    ++hook_calls;
  });
  BroadcastOptions opts;
  opts.tree_width = 3;
  cluster_model->fail(1);  // a dead target: the trees adopt its subtree
  const auto result = run(*b, targets(100), opts);
  for (NodeId n = 2; n <= 100; ++n) EXPECT_EQ(hits[n], 1) << "node " << n;
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(result.delivered, hook_calls);
  EXPECT_EQ(result.delivered, 99u);
  EXPECT_EQ(result.unreachable, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, BroadcastLifecycle,
                         ::testing::Values(Structure{"ring"}, Structure{"star"},
                                           Structure{"shm"}, Structure{"tree"},
                                           Structure{"fptree"}));

}  // namespace
}  // namespace eslurm::comm
