// How a tree relay matches a completion to the child slot it closes.  A
// relay names the parent's slot the child fills and the completion
// carries it back, so the parent closes that slot directly.  These cases
// pin the rules around it: a late completion of a slot the watchdog
// already closed counts nothing, an already-reached node's empty
// completion closes exactly the adopting parent's slot, and a completion
// of a finished broadcast is dropped even when its record slot already
// serves the next broadcast.
//
// Late completions are made by a slow receiver: a node's per-message
// receive cost is raised for a short window, so the messages that reach
// it in that window queue for far longer than the tree's watchdogs.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "cluster/cluster.hpp"
#include "comm/tree.hpp"

namespace eslurm::comm {
namespace {

constexpr std::size_t kNodes = 64;

std::vector<NodeId> targets(std::size_t n, NodeId first = 1) {
  std::vector<NodeId> out(n);
  std::iota(out.begin(), out.end(), first);
  return out;
}

/// A jitter-free network over a cluster whose liveness it follows.
struct World {
  sim::Engine engine;
  net::LinkModel model;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;

  World() {
    model.jitter_frac = 0.0;
    net.emplace(engine, kNodes, model, Rng(1));
    cluster_model.emplace(engine, kNodes);
    net->set_liveness(cluster_model->liveness());
  }

  /// Every message reaching `node` from now until `until` costs `cost`
  /// of receive processing, serialized one after another.
  void slow_receiver(NodeId node, SimTime cost, SimTime until) {
    net->set_recv_processing(node, cost);
    engine.schedule_at(until, [this, node] { net->set_recv_processing(node, 0); });
  }
};

struct TreeCompletionFixture : ::testing::Test, World {};

TEST_F(TreeCompletionFixture, LateCompletionOfAnAdoptedSlotCountsNothing) {
  // A two-node chain: the root's only child (node 1) relays to node 2.
  // Node 1's completion reaches the root at once but waits 15 s in the
  // root's receive queue, so the root's watchdog for node 1 (12 s) fires
  // first: node 1 is declared unreachable and its subtree (node 2) is
  // adopted.  The late completion names a slot that is already done and
  // must count nothing; node 2's empty completion, queued behind it,
  // closes the adopted slot and finishes the broadcast before that
  // slot's own watchdog (8 s after adoption) could fire.
  TreeBroadcaster tree(*net);
  BroadcastOptions opts;
  opts.tree_width = 1;
  slow_receiver(0, seconds(15), seconds(1));
  std::optional<BroadcastResult> result;
  std::uint64_t root_received = 0;
  tree.broadcast(0, targets(2), opts, [&](const BroadcastResult& r) {
    result = r;
    root_received = net->messages_received(0);
  });
  engine.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(root_received, 2u);  // the late completion, then the empty one
  EXPECT_EQ(result->delivered, 2u);
  EXPECT_EQ(result->unreachable, 1u);
  EXPECT_EQ(result->repairs, 1);
  EXPECT_GE(result->elapsed(), seconds(15));
  EXPECT_LT(result->elapsed(), seconds(20));
}

TEST_F(TreeCompletionFixture, EmptyCompletionsCloseExactlyTheAdoptingParentsSlots) {
  // Width 3 over 13 targets.  Node 1 -- the root's first child, relay of
  // nodes 2..5 -- takes the payload and then turns slow, so its
  // children's completions sit in its receive queue and it never
  // reports.  The root's watchdog (12 s) adopts nodes 2..5 under three
  // new slots; each of those nodes is already reached and answers the
  // root with an empty completion that closes its own slot.
  constexpr NodeId kRelay = 1;
  constexpr std::size_t kTargets = 13;
  TreeBroadcaster tree(*net);
  std::vector<int> hits(kNodes, 0);
  tree.set_delivery_hook([&](NodeId n, std::uint64_t) {
    ++hits[n];
    if (n == kRelay) slow_receiver(kRelay, seconds(30), engine.now() + seconds(1));
  });
  BroadcastOptions opts;
  opts.tree_width = 3;
  int calls = 0;
  BroadcastResult result;
  tree.broadcast(0, targets(kTargets), opts, [&](const BroadcastResult& r) {
    ++calls;
    result = r;
  });
  engine.run();
  ASSERT_EQ(calls, 1);
  // Had an adopted slot stayed open, its watchdog would have adopted
  // again and counted one more repair and one more unreachable node.
  EXPECT_EQ(result.delivered, kTargets);
  EXPECT_EQ(result.unreachable, 1u);
  EXPECT_EQ(result.repairs, 1);
  EXPECT_LT(result.elapsed(), seconds(13));
  for (NodeId n = 1; n <= kTargets; ++n) EXPECT_EQ(hits[n], 1) << "node " << n;
}

TEST_F(TreeCompletionFixture, CompletionOfARecycledRecordIsDropped) {
  // One target.  Its completion waits 10 s in the root's receive queue,
  // so the root's watchdog (8 s) declares it unreachable and finishes
  // the broadcast.  The callback kills the target and broadcasts to it
  // again in the freed record slot: the root spends 3 s on connection
  // attempts, and the stale completion -- same record slot, same child
  // slot, same sender -- lands in the middle of them.  It names the old
  // broadcast's id and must leave the new one untouched.
  constexpr NodeId kTarget = 1;
  TreeBroadcaster tree(*net);
  slow_receiver(0, seconds(10), seconds(1));
  std::vector<BroadcastResult> results;
  std::uint64_t root_received_first = 0;
  std::uint64_t root_received_second = 0;
  tree.broadcast(0, {kTarget}, {}, [&](const BroadcastResult& first) {
    results.push_back(first);
    root_received_first = net->messages_received(0);
    cluster_model->fail(kTarget);
    tree.broadcast(0, {kTarget}, {}, [&](const BroadcastResult& second) {
      results.push_back(second);
      root_received_second = net->messages_received(0);
    });
  });
  engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].delivered, 1u);
  EXPECT_EQ(results[0].unreachable, 1u);
  EXPECT_EQ(root_received_first, 0u);
  EXPECT_EQ(root_received_second, 1u);  // the stale completion

  // The same broadcast to a dead target in a fresh world.
  World reference;
  reference.cluster_model->fail(kTarget);
  TreeBroadcaster alone(*reference.net);
  std::optional<BroadcastResult> expected;
  alone.broadcast(0, {kTarget}, {}, [&](const BroadcastResult& r) { expected = r; });
  reference.engine.run();
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(results[1].delivered, 0u);
  EXPECT_EQ(results[1].unreachable, 1u);
  EXPECT_EQ(results[1].repairs, expected->repairs);
  EXPECT_EQ(results[1].elapsed(), expected->elapsed());
}

}  // namespace
}  // namespace eslurm::comm
