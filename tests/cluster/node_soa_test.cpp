// Struct-of-arrays node state: the NodeBitset word machinery and a
// randomized churn test that drives joins/deaths/drains/repairs through
// ClusterModel and checks every bitset-scan query against a naive
// per-node reference model (the data layout the SoA refactor replaced).
#include "cluster/node_soa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "util/rng.hpp"

namespace eslurm::cluster {
namespace {

TEST(NodeBitsetTest, SetResetReportChanges) {
  NodeBitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.set(129));
  EXPECT_FALSE(bits.set(129));  // already set
  EXPECT_TRUE(bits.test(129));
  EXPECT_EQ(bits.count(), 1u);
  EXPECT_TRUE(bits.reset(129));
  EXPECT_FALSE(bits.reset(129));
  EXPECT_EQ(bits.count(), 0u);
}

TEST(NodeBitsetTest, SetAllMasksTailWord) {
  NodeBitset bits(70);  // spills 6 bits into the second word
  bits.set_all();
  EXPECT_EQ(bits.count(), 70u);
  std::size_t seen = 0;
  bits.for_each_set([&](NodeId id) {
    EXPECT_LT(id, 70u);
    ++seen;
  });
  EXPECT_EQ(seen, 70u);
}

TEST(NodeBitsetTest, ForEachSetAscending) {
  NodeBitset bits(200);
  for (NodeId id : {3u, 64u, 65u, 127u, 128u, 199u}) bits.set(id);
  std::vector<NodeId> order;
  bits.for_each_set([&](NodeId id) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<NodeId>{3, 64, 65, 127, 128, 199}));
}

TEST(NodeBitsetTest, DiffReportsTransitionsWithDirection) {
  NodeBitset before(128), after(128);
  before.set(1);
  before.set(70);
  after.set(70);
  after.set(100);
  std::vector<std::pair<NodeId, bool>> diffs;
  before.for_each_diff(after, [&](NodeId id, bool now_set) {
    diffs.emplace_back(id, now_set);
  });
  // 1 cleared, 70 unchanged (absent), 100 newly set -- ascending order.
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], (std::pair<NodeId, bool>{1, false}));
  EXPECT_EQ(diffs[1], (std::pair<NodeId, bool>{100, true}));
}

TEST(NodeBitsetTest, WordCombinatorsMatchPerBitOps) {
  Rng rng(7);
  NodeBitset a(300), b(300), out(300);
  for (NodeId id = 0; id < 300; ++id) {
    if (rng.chance(0.4)) a.set(id);
    if (rng.chance(0.4)) b.set(id);
  }
  out.assign_and_not(a, b);
  std::size_t expect = 0;
  for (NodeId id = 0; id < 300; ++id) {
    EXPECT_EQ(out.test(id), a.test(id) && !b.test(id));
    if (a.test(id) && !b.test(id)) ++expect;
  }
  EXPECT_EQ(out.count(), expect);
}

TEST(NodeSoaTest, ApplyStateMaintainsRiskAndUp) {
  NodeSoa soa(4);
  EXPECT_EQ(soa.up.count(), 4u);
  EXPECT_TRUE(soa.apply_state(2, NodeState::Down, 100));
  EXPECT_FALSE(soa.apply_state(2, NodeState::Down, 200));  // no-op
  EXPECT_FALSE(soa.up.test(2));
  EXPECT_EQ(soa.failure_count[2], 1u);
  EXPECT_DOUBLE_EQ(soa.risk[2], 1.0 / 9.0);  // failures / (failures + 8)
  EXPECT_EQ(soa.state_since[2], 100);
  EXPECT_TRUE(soa.apply_state(2, NodeState::Up, 300));
  EXPECT_TRUE(soa.up.test(2));
  EXPECT_EQ(soa.failure_count[2], 1u);  // repairs do not erase history
}

TEST(NodeSoaTest, OverdueReports) {
  NodeSoa soa(3);
  EXPECT_EQ(soa.overdue_reports(1000), 0u);  // no deadlines armed yet
  soa.report_deadline[0] = 500;
  soa.report_deadline[1] = 2000;
  EXPECT_EQ(soa.overdue_reports(1000), 1u);
  EXPECT_EQ(soa.overdue_reports(3000), 2u);
}

// Naive reference model: the per-node-object structures the SoA layout
// replaced.  Every query the refactor answers by bitset scan is checked
// against this after every churn step.
struct ReferenceModel {
  struct Node {
    NodeState state = NodeState::Up;
    std::uint32_t failures = 0;
  };
  std::vector<Node> nodes;
  std::unordered_set<NodeId> up;

  explicit ReferenceModel(std::size_t n) : nodes(n) {
    for (NodeId id = 0; id < n; ++id) up.insert(id);
  }
  void apply(NodeId id, NodeState to) {
    if (nodes[id].state == to) return;
    nodes[id].state = to;
    if (to == NodeState::Up) up.insert(id);
    else up.erase(id);
    if (to == NodeState::Down) ++nodes[id].failures;
  }
};

TEST(NodeSoaChurnTest, RandomChurnMatchesNaiveModel) {
  constexpr std::size_t kNodes = 600;
  constexpr int kSteps = 4000;
  sim::Engine engine;
  ClusterModel cluster(engine, kNodes);
  ReferenceModel ref(kNodes);
  Rng rng(0xC0FFEE);

  for (int step = 0; step < kSteps; ++step) {
    const auto victim =
        static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    const double roll = rng.next_double();
    // Deaths, repairs (joins) and maintenance drains, weighted so all
    // three transitions keep occurring against every prior state.
    const NodeState to = roll < 0.45   ? NodeState::Down
                         : roll < 0.85 ? NodeState::Up
                                       : NodeState::Maintenance;
    cluster.set_state(victim, to);
    ref.apply(victim, to);

    if (step % 37 != 0) continue;  // full-scan checks on a subsample
    EXPECT_EQ(cluster.alive_count(), ref.up.size());
    std::set<NodeId> soa_up, ref_up(ref.up.begin(), ref.up.end());
    cluster.alive_bits().for_each_set([&](NodeId id) { soa_up.insert(id); });
    EXPECT_EQ(soa_up, ref_up);
    for (NodeId id = 0; id < kNodes; ++id) {
      ASSERT_EQ(cluster.state(id), ref.nodes[id].state) << "node " << id;
      ASSERT_EQ(cluster.failure_count(id), ref.nodes[id].failures) << "node " << id;
      ASSERT_EQ(cluster.alive(id), ref.up.count(id) > 0) << "node " << id;
    }
    // The alive bitset scan is ascending and complete.
    std::vector<NodeId> ids;
    cluster.alive_bits().for_each_set([&](NodeId id) { ids.push_back(id); });
    ASSERT_EQ(ids.size(), ref.up.size());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
}

}  // namespace
}  // namespace eslurm::cluster
