// Tests for the tree-shape machinery shared by the plain tree and the
// FP-Tree: range partitioning, leaf location (Eq. 2) and the node-list
// rearranger.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/fp_tree.hpp"
#include "comm/tree.hpp"

namespace eslurm::comm {
namespace {

std::vector<Range> partition_range(std::size_t begin, std::size_t end, int width) {
  std::vector<Range> groups;
  for_each_group(begin, end, width, [&groups](Range group) { groups.push_back(group); });
  return groups;
}

TEST(PartitionRange, EvenSplit) {
  const auto groups = partition_range(0, 12, 3);
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(groups[0].begin, 0u);
  EXPECT_EQ(groups[2].end, 12u);
}

TEST(PartitionRange, RemainderGoesToEarlyGroups) {
  const auto groups = partition_range(0, 10, 4);
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].size(), 3u);
  EXPECT_EQ(groups[1].size(), 3u);
  EXPECT_EQ(groups[2].size(), 2u);
  EXPECT_EQ(groups[3].size(), 2u);
}

TEST(PartitionRange, FewerElementsThanWidth) {
  const auto groups = partition_range(0, 3, 50);
  ASSERT_EQ(groups.size(), 3u);  // Eq. 2: n < w -> n singleton groups
  for (const auto& g : groups) EXPECT_EQ(g.size(), 1u);
}

TEST(PartitionRange, EmptyAndErrors) {
  EXPECT_TRUE(partition_range(5, 5, 4).empty());
  EXPECT_THROW(partition_range(0, 4, 0), std::invalid_argument);
}

TEST(PartitionRange, CoversRangeExactly) {
  for (std::size_t n : {1u, 2u, 7u, 50u, 51u, 499u}) {
    for (int w : {2, 3, 50}) {
      const auto groups = partition_range(100, 100 + n, w);
      std::size_t covered = 0;
      std::size_t expect_begin = 100;
      for (const auto& g : groups) {
        EXPECT_EQ(g.begin, expect_begin);
        expect_begin = g.end;
        covered += g.size();
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(expect_begin, 100 + n);
    }
  }
}

TEST(TreeDepthEstimate, GrowsLogarithmically) {
  EXPECT_EQ(tree_depth_estimate(0, 50), 0);
  EXPECT_GE(tree_depth_estimate(1, 50), 1);
  EXPECT_LE(tree_depth_estimate(4096, 50), 3);
  EXPECT_GT(tree_depth_estimate(100000, 2), tree_depth_estimate(100, 2));
}

TEST(LocateLeaves, AllLeavesWhenFewerThanWidth) {
  const auto leaf = locate_leaf_positions(7, 50);
  for (bool l : leaf) EXPECT_TRUE(l);
}

TEST(LocateLeaves, SmallExactCase) {
  // n=6, w=2: groups [0..2][3..5]; heads 0 and 3 internal;
  // subtrees [1,2] and [4,5]: each splits into singletons -> leaves.
  const auto leaf = locate_leaf_positions(6, 2);
  EXPECT_FALSE(leaf[0]);
  EXPECT_TRUE(leaf[1]);
  EXPECT_TRUE(leaf[2]);
  EXPECT_FALSE(leaf[3]);
  EXPECT_TRUE(leaf[4]);
  EXPECT_TRUE(leaf[5]);
}

TEST(LocateLeaves, EmptyList) {
  EXPECT_TRUE(locate_leaf_positions(0, 4).empty());
}

TEST(LocateLeaves, MajorityAreLeavesForWideTrees) {
  // In a k-ary tree most nodes are leaves.  With this grouping scheme a
  // 4K-node, width-50 tree ends up with ~61% leaves.
  const auto leaf = locate_leaf_positions(4096, 50);
  const auto leaves = static_cast<std::size_t>(
      std::count(leaf.begin(), leaf.end(), true));
  EXPECT_GT(leaves, 4096u / 2);
  EXPECT_LT(leaves, 4096u);  // but some internal nodes exist
}

// Parameterized sweep: the leaf locator must agree with an independent
// simulation of the fan-out recursion for many (n, w) combinations.
class LeafLocatorSweep : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LeafLocatorSweep, MatchesIndependentRecursion) {
  const auto [n, w] = GetParam();
  const auto leaf = locate_leaf_positions(n, w);
  // Independent check: walk the same recursion and verify heads of
  // multi-element groups are internal.
  std::vector<bool> internal(n, false);
  std::vector<Range> stack{Range{0, n}};
  while (!stack.empty()) {
    const Range r = stack.back();
    stack.pop_back();
    for (const auto& g : partition_range(r.begin, r.end, w)) {
      if (g.size() > 1) {
        internal[g.begin] = true;
        stack.push_back(Range{g.begin + 1, g.end});
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(leaf[i], !internal[i]) << "pos " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LeafLocatorSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 49, 50, 51, 100, 1511, 4096),
                       ::testing::Values(2, 3, 16, 50)));

TEST(Rearrange, PredictedNodesLandOnLeaves) {
  std::vector<NodeId> list(100);
  std::iota(list.begin(), list.end(), 0u);
  cluster::StaticFailurePredictor predictor({3, 10, 57, 99});
  RearrangeStats stats;
  const auto out = rearrange_nodelist(list, 4, predictor, &stats);
  EXPECT_EQ(stats.predicted, 4u);
  EXPECT_EQ(stats.predicted_on_leaf, 4u);
  const auto leaf = locate_leaf_positions(100, 4);
  for (std::size_t pos = 0; pos < out.size(); ++pos) {
    if (predictor.predicted_failed(out[pos])) {
      EXPECT_TRUE(leaf[pos]) << "pos " << pos;
    }
  }
}

TEST(Rearrange, PreservesTheNodeSet) {
  std::vector<NodeId> list{9, 4, 7, 1, 0, 3, 8, 2, 6, 5};
  cluster::StaticFailurePredictor predictor({4, 6});
  auto out = rearrange_nodelist(list, 3, predictor);
  auto sorted_in = list, sorted_out = out;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);
}

TEST(Rearrange, StableWithinSubsets) {
  std::vector<NodeId> list{0, 1, 2, 3, 4, 5, 6, 7};
  cluster::StaticFailurePredictor predictor({1, 5});
  const auto out = rearrange_nodelist(list, 2, predictor);
  // Healthy nodes keep their relative order.
  std::vector<NodeId> healthy_order;
  for (NodeId n : out)
    if (!predictor.predicted_failed(n)) healthy_order.push_back(n);
  EXPECT_EQ(healthy_order, (std::vector<NodeId>{0, 2, 3, 4, 6, 7}));
  // Predicted nodes keep theirs too.
  std::vector<NodeId> predicted_order;
  for (NodeId n : out)
    if (predictor.predicted_failed(n)) predicted_order.push_back(n);
  EXPECT_EQ(predicted_order, (std::vector<NodeId>{1, 5}));
}

TEST(Rearrange, MorePredictedThanLeafSlotsOverflowsToInternal) {
  std::vector<NodeId> list(10);
  std::iota(list.begin(), list.end(), 0u);
  cluster::StaticFailurePredictor predictor({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  RearrangeStats stats;
  const auto out = rearrange_nodelist(list, 2, predictor, &stats);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(stats.predicted, 10u);
  EXPECT_EQ(stats.predicted_on_leaf, stats.leaf_slots);
  EXPECT_LT(stats.leaf_slots, 10u);
}

TEST(Rearrange, NoPredictionIsIdentity) {
  std::vector<NodeId> list{5, 3, 8, 1};
  cluster::NullFailurePredictor predictor;
  EXPECT_EQ(rearrange_nodelist(list, 2, predictor), list);
}

TEST(Rearrange, EmptyList) {
  cluster::NullFailurePredictor predictor;
  RearrangeStats stats;
  EXPECT_TRUE(rearrange_nodelist({}, 4, predictor, &stats).empty());
  EXPECT_DOUBLE_EQ(stats.leaf_placement_ratio(), 1.0);
}

}  // namespace
}  // namespace eslurm::comm
