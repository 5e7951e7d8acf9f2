// Unit tests of the RM's node ledger: deployment validation, the LIFO
// reuse order of both allocation paths, the clean-termination rule
// against the abort rule, the order in which sidelined nodes merge back,
// and the transitions a health refresh reports.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "rm/node_ledger.hpp"

namespace eslurm::rm {
namespace {

constexpr std::size_t kNodes = 6;

/// Master 0, satellite 1, compute 2..5.
RmDeployment small_deployment() {
  RmDeployment deployment;
  deployment.master = 0;
  deployment.satellites = {1};
  deployment.compute = {2, 3, 4, 5};
  return deployment;
}

cluster::NodeBitset all_alive() {
  cluster::NodeBitset alive(kNodes);
  alive.set_all();
  return alive;
}

/// Takes the free nodes one single-node allocation at a time: the free
/// list from its top (most recently freed) down, minus the unhealthy
/// nodes those pops sideline.
std::vector<NodeId> drain_free_list(NodeLedger& ledger, sched::JobId first_job) {
  std::vector<NodeId> order;
  for (sched::JobId job = first_job; ledger.allocate(job, 1); ++job)
    order.push_back(ledger.nodes(job).front());
  return order;
}

TEST(NodeLedger, StartsWithEveryComputeNodeFree) {
  const NodeLedger ledger(kNodes, small_deployment());
  EXPECT_EQ(ledger.free_count(), 4u);
  EXPECT_TRUE(ledger.is_compute(2));
  EXPECT_FALSE(ledger.is_compute(1));
  EXPECT_EQ(ledger.owner(3), sched::kNoJob);
  EXPECT_TRUE(ledger.nodes(7).empty());
  EXPECT_TRUE(ledger.check().empty());
}

TEST(NodeLedger, RejectsOutOfRangeIds) {
  RmDeployment master = small_deployment();
  master.master = kNodes;
  EXPECT_THROW(NodeLedger(kNodes, master), std::invalid_argument);
  RmDeployment satellite = small_deployment();
  satellite.satellites.push_back(kNodes + 3);
  EXPECT_THROW(NodeLedger(kNodes, satellite), std::invalid_argument);
  RmDeployment compute = small_deployment();
  compute.compute.push_back(kNodes);
  EXPECT_THROW(NodeLedger(kNodes, compute), std::invalid_argument);
}

TEST(NodeLedger, RejectsDuplicatedIds) {
  RmDeployment compute = small_deployment();
  compute.compute.push_back(3);
  EXPECT_THROW(NodeLedger(kNodes, compute), std::invalid_argument);
  RmDeployment satellite = small_deployment();
  satellite.satellites.push_back(1);
  EXPECT_THROW(NodeLedger(kNodes, satellite), std::invalid_argument);
}

TEST(NodeLedger, RejectsANodeWithTwoRoles) {
  RmDeployment master_compute = small_deployment();
  master_compute.compute.push_back(0);
  EXPECT_THROW(NodeLedger(kNodes, master_compute), std::invalid_argument);
  RmDeployment satellite_compute = small_deployment();
  satellite_compute.satellites.push_back(4);
  EXPECT_THROW(NodeLedger(kNodes, satellite_compute), std::invalid_argument);
  RmDeployment master_satellite = small_deployment();
  master_satellite.satellites.push_back(0);
  EXPECT_THROW(NodeLedger(kNodes, master_satellite), std::invalid_argument);
}

TEST(NodeLedger, LifoReuseAfterAllocateAndRelease) {
  NodeLedger ledger(kNodes, small_deployment());
  ASSERT_TRUE(ledger.allocate(1, 2));
  EXPECT_EQ(ledger.nodes(1), (std::vector<NodeId>{5, 4}));  // popped from the top
  EXPECT_EQ(ledger.owner(5), 1u);
  ASSERT_TRUE(ledger.allocate(2, 1));
  EXPECT_EQ(ledger.nodes(2), (std::vector<NodeId>{3}));
  EXPECT_TRUE(ledger.check().empty());

  ledger.release(1);  // pushes 5 then 4: the free list is now 2, 5, 4
  EXPECT_TRUE(ledger.nodes(1).empty());
  EXPECT_EQ(ledger.owner(5), sched::kNoJob);
  EXPECT_TRUE(ledger.check().empty());
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{4, 5, 2}));
  EXPECT_TRUE(ledger.check().empty());
}

TEST(NodeLedger, FailedAllocationPutsTheTakenNodesBackInPopOrder) {
  NodeLedger ledger(kNodes, small_deployment());
  cluster::NodeBitset alive = all_alive();
  alive.reset(4);
  ledger.refresh(alive);  // 4 believed down, still in the free list
  EXPECT_EQ(ledger.free_count(), 4u);

  // Pops 5, sidelines 4, pops 3 and 2, then gives back 5, 3, 2.
  EXPECT_FALSE(ledger.allocate(1, 4));
  EXPECT_TRUE(ledger.nodes(1).empty());
  EXPECT_EQ(ledger.free_count(), 3u);
  EXPECT_TRUE(ledger.check().empty());
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{2, 3, 5}));
}

TEST(NodeLedger, PenaltyPathTakesTheCheapestAndRefreesTheRestInOrder) {
  NodeLedger ledger(kNodes, small_deployment());
  ledger.drain(3);  // sidelined, never a candidate
  const auto penalty = [](NodeId node) { return node == 2 ? 1.0 : 0.0; };
  ASSERT_TRUE(ledger.allocate(1, 1, penalty));
  EXPECT_EQ(ledger.nodes(1), (std::vector<NodeId>{4}));  // ties break on id
  EXPECT_TRUE(ledger.check().empty());
  // The losers return sorted by (penalty, id): 5 then 2, so 2 is on top.
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{2, 5}));

  // Four free nodes but only three healthy: the unhealthy one is
  // sidelined and the healthy ones return in free-list order.
  NodeLedger short_ledger(kNodes, small_deployment());
  cluster::NodeBitset alive = all_alive();
  alive.reset(3);
  short_ledger.refresh(alive);
  EXPECT_FALSE(short_ledger.allocate(1, 4, penalty));
  EXPECT_EQ(short_ledger.free_count(), 3u);
  EXPECT_TRUE(short_ledger.check().empty());
  EXPECT_EQ(drain_free_list(short_ledger, 10), (std::vector<NodeId>{5, 4, 2}));
}

/// A four-node allocation of job 1 where node 4 is believed down and
/// node 3 is drained; nodes 5 and 2 look healthy.
NodeLedger troubled_allocation() {
  NodeLedger ledger(kNodes, small_deployment());
  EXPECT_TRUE(ledger.allocate(1, 4));
  const auto notice = ledger.mark_down(4);
  EXPECT_TRUE(notice.changed);
  EXPECT_EQ(notice.owner, 1u);
  ledger.drain(3);
  EXPECT_TRUE(ledger.check().empty());
  return ledger;
}

TEST(NodeLedger, ReleaseSidelinesOnlyDrainedNodes) {
  NodeLedger ledger = troubled_allocation();
  ledger.release(1);
  EXPECT_EQ(ledger.free_count(), 3u);  // 5, 4 and 2
  EXPECT_TRUE(ledger.believed_down().test(4));  // freed all the same
  EXPECT_TRUE(ledger.check().empty());
  // Node 4 is still believed down: the pop that meets it sidelines it.
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{2, 5}));
}

TEST(NodeLedger, ReclaimSidelinesDeadBelievedDownAndDrainedNodes) {
  NodeLedger ledger = troubled_allocation();
  cluster::NodeBitset alive = all_alive();
  alive.reset(5);  // died during the aborted run
  ledger.reclaim(1, alive);
  EXPECT_EQ(ledger.free_count(), 1u);
  EXPECT_TRUE(ledger.believed_down().test(5));  // the abort found it dead
  EXPECT_TRUE(ledger.believed_down().test(4));
  EXPECT_FALSE(ledger.believed_down().test(3));
  EXPECT_EQ(ledger.owner(2), sched::kNoJob);
  EXPECT_TRUE(ledger.check().empty());
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{2}));
}

TEST(NodeLedger, MarkDownSidelinesAFreeNodeOnce) {
  NodeLedger ledger(kNodes, small_deployment());
  const auto first = ledger.mark_down(3);
  EXPECT_TRUE(first.changed);
  EXPECT_EQ(first.owner, sched::kNoJob);
  EXPECT_EQ(ledger.free_count(), 3u);
  EXPECT_FALSE(ledger.mark_down(3).changed);
  EXPECT_TRUE(ledger.check().empty());
}

TEST(NodeLedger, ResumeMergesSidelinedNodesInSidelineOrder) {
  NodeLedger ledger(kNodes, small_deployment());
  ledger.drain(3);
  ledger.drain(5);
  ledger.mark_down(2);  // sidelined: 3, 5, 2; free: 4
  ledger.flag_proactive_drain(5);
  EXPECT_TRUE(ledger.check().empty());

  ledger.resume(5);  // 3 stays drained; 5 and 2 rejoin in that order
  EXPECT_FALSE(ledger.proactive_drained(5));
  EXPECT_FALSE(ledger.drained().test(5));
  EXPECT_EQ(ledger.free_count(), 3u);
  ledger.resume(3);
  EXPECT_TRUE(ledger.check().empty());
  // Free list bottom to top: 4, 5, 2, 3.  Node 2 is still believed down,
  // so the pop that meets it sidelines it again.
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{3, 5, 4}));
  EXPECT_TRUE(ledger.check().empty());
}

TEST(NodeLedger, RefreshMergesSidelinedNodesButKeepsDrainedOnes) {
  NodeLedger ledger(kNodes, small_deployment());
  ledger.mark_down(4);
  ledger.drain(5);
  ledger.mark_down(2);  // sidelined: 4, 5, 2; free: 3
  ledger.refresh(all_alive());
  EXPECT_FALSE(ledger.believed_down().test(4));
  EXPECT_EQ(ledger.free_count(), 3u);
  EXPECT_TRUE(ledger.check().empty());
  EXPECT_EQ(drain_free_list(ledger, 10), (std::vector<NodeId>{2, 4, 3}));
}

TEST(NodeLedger, RefreshReportsEachTransitionOnce) {
  NodeLedger ledger(kNodes, small_deployment());
  std::vector<std::pair<NodeId, bool>> seen;
  const auto record = [&seen](NodeId node, bool down) { seen.emplace_back(node, down); };
  cluster::NodeBitset alive = all_alive();
  alive.reset(1);  // a satellite: not the ledger's to track
  alive.reset(3);
  alive.reset(5);
  ledger.refresh(alive, record);
  EXPECT_EQ(seen, (std::vector<std::pair<NodeId, bool>>{{3, true}, {5, true}}));
  seen.clear();
  ledger.refresh(alive, record);
  EXPECT_TRUE(seen.empty());
  alive.set(3);
  ledger.refresh(alive, record);
  EXPECT_EQ(seen, (std::vector<std::pair<NodeId, bool>>{{3, false}}));
  EXPECT_TRUE(ledger.check().empty());
}

TEST(NodeLedger, CheckFlagsAProactiveFlagWithoutADrain) {
  NodeLedger ledger(kNodes, small_deployment());
  ledger.flag_proactive_drain(4);
  const auto violations = ledger.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("proactively drained"), std::string::npos);
}

}  // namespace
}  // namespace eslurm::rm
