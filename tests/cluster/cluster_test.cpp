#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

namespace eslurm::cluster {
namespace {

TEST(ClusterModelTest, BuildsNodesAllUp) {
  sim::Engine engine;
  ClusterModel cluster(engine, 4);
  EXPECT_EQ(cluster.size(), 4u);
  EXPECT_EQ(cluster.alive_count(), 4u);
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster.state(id), NodeState::Up);
    EXPECT_EQ(cluster.state_since(id), 0);
    EXPECT_EQ(cluster.failure_count(id), 0u);
  }
}

TEST(ClusterModelTest, FailAndRestoreUpdateCounts) {
  sim::Engine engine;
  ClusterModel cluster(engine, 3);
  cluster.fail(1);
  EXPECT_FALSE(cluster.alive(1));
  EXPECT_EQ(cluster.alive_count(), 2u);
  EXPECT_EQ(cluster.failed_count(), 1u);
  cluster.restore(1);
  EXPECT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.alive_count(), 3u);
}

TEST(ClusterModelTest, StateChangeIsIdempotent) {
  sim::Engine engine;
  ClusterModel cluster(engine, 2);
  int notifications = 0;
  cluster.add_observer([&](NodeId, NodeState, NodeState) { ++notifications; });
  cluster.fail(0);
  cluster.fail(0);
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(cluster.failure_count(0), 1u);
}

TEST(ClusterModelTest, ObserverSeesTransition) {
  sim::Engine engine;
  ClusterModel cluster(engine, 2);
  NodeId seen = net::kNoNode;
  NodeState from{}, to{};
  cluster.add_observer([&](NodeId id, NodeState old_state, NodeState new_state) {
    seen = id;
    from = old_state;
    to = new_state;
  });
  cluster.set_state(1, NodeState::Maintenance);
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(from, NodeState::Up);
  EXPECT_EQ(to, NodeState::Maintenance);
  EXPECT_FALSE(cluster.alive(1));
}

TEST(ClusterModelTest, LivenessOracleMatches) {
  sim::Engine engine;
  ClusterModel cluster(engine, 2);
  const auto alive = cluster.liveness();
  EXPECT_TRUE(alive(0));
  cluster.fail(0);
  EXPECT_FALSE(alive(0));
}

TEST(ClusterModelTest, StateSinceTracksClock) {
  sim::Engine engine;
  ClusterModel cluster(engine, 1);
  engine.schedule_at(seconds(5), [&] { cluster.fail(0); });
  engine.run();
  EXPECT_EQ(cluster.state_since(0), seconds(5));
}

}  // namespace
}  // namespace eslurm::cluster
