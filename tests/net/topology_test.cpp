#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace eslurm::net {
namespace {

TEST(TopologyTest, RackAndGroupAssignment) {
  Topology topo(256, TopologyConfig{.nodes_per_rack = 32, .racks_per_group = 4});
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(31), 0u);
  EXPECT_EQ(topo.rack_of(32), 1u);
  EXPECT_EQ(topo.group_of(0), 0u);
  EXPECT_EQ(topo.group_of(127), 0u);
  EXPECT_EQ(topo.group_of(128), 1u);
  EXPECT_EQ(topo.rack_count(), 8u);
}

TEST(TopologyTest, RackCountRoundsUp) {
  Topology topo(33, TopologyConfig{.nodes_per_rack = 32});
  EXPECT_EQ(topo.rack_count(), 2u);
}

TEST(TopologyTest, LatencyHierarchy) {
  TopologyConfig config;
  Topology topo(1024, config);
  EXPECT_EQ(topo.latency(5, 5), 0);
  EXPECT_EQ(topo.latency(0, 31), config.intra_rack_latency);
  EXPECT_EQ(topo.latency(0, 32), config.inter_rack_latency);
  EXPECT_EQ(topo.latency(0, 300), config.inter_group_latency);
  // Symmetric.
  EXPECT_EQ(topo.latency(300, 0), topo.latency(0, 300));
}

TEST(TopologyTest, TopologyOrderGroupsByRack) {
  Topology topo(128, TopologyConfig{.nodes_per_rack = 4, .racks_per_group = 2});
  const auto ordered = topo.topology_order({13, 1, 9, 2, 14, 5});
  // Racks: 13,14 -> 3; 1,2 -> 0; 9 -> 2; 5 -> 1.
  EXPECT_EQ(ordered, (std::vector<NodeId>{1, 2, 5, 9, 13, 14}));
}

TEST(TopologyTest, TopologyOrderIsStableWithinRack) {
  Topology topo(64, TopologyConfig{.nodes_per_rack = 32});
  const auto ordered = topo.topology_order({7, 3, 40, 5});
  EXPECT_EQ(ordered, (std::vector<NodeId>{7, 3, 5, 40}));  // 7,3,5 keep order
}

TEST(TopologyTest, InvalidConfigThrows) {
  EXPECT_THROW(Topology(10, TopologyConfig{.nodes_per_rack = 0}),
               std::invalid_argument);
}

TEST(TopologyNetworkTest, TopologyDrivesPropagationLatency) {
  sim::Engine engine;
  LinkModel model;
  model.jitter_frac = 0.0;
  Network net(engine, 128, model, Rng(1));
  TopologyConfig config;
  config.racks_per_group = 2;  // node 127 (rack 3) is in another group
  config.intra_rack_latency = microseconds(5);
  config.inter_group_latency = milliseconds(10);  // exaggerated for the test
  Topology topo(128, config);
  net.set_topology(&topo);
  net.register_handler(1, [](NodeId, const Message&) {});

  SimTime near_done = 0, far_done = 0;
  net.send(0, 1, Message{.type = 1}, 0, [&](bool) { near_done = engine.now(); });
  engine.run();
  const SimTime t0 = engine.now();
  net.send(0, 127, Message{.type = 1}, 0, [&](bool) { far_done = engine.now(); });
  engine.run();
  EXPECT_GT(far_done - t0, near_done + milliseconds(5));
}

}  // namespace
}  // namespace eslurm::net
