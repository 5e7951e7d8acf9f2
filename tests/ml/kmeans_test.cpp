#include "ml/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace eslurm::ml {
namespace {

Dataset three_blobs(std::size_t per_blob = 40) {
  Rng rng(1);
  Dataset data;
  const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 12}};
  for (int c = 0; c < 3; ++c)
    for (std::size_t i = 0; i < per_blob; ++i)
      data.add({centers[c][0] + rng.normal(0, 0.5), centers[c][1] + rng.normal(0, 0.5)},
               0.0);
  return data;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  const Dataset data = three_blobs();
  KMeans km(KMeansParams{.k = 3}, Rng(2));
  km.fit(data);
  ASSERT_EQ(km.k(), 3u);
  // Every blob's points map to a single cluster.
  for (int blob = 0; blob < 3; ++blob) {
    const std::size_t base = static_cast<std::size_t>(blob) * 40;
    const std::size_t label = km.labels()[base];
    for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(km.labels()[base + i], label);
  }
  // Inertia tiny relative to the blob separation.
  EXPECT_LT(km.inertia() / 120.0, 1.0);
}

TEST(KMeansTest, KLargerThanRowsIsClamped) {
  Dataset data;
  data.add({1.0}, 0);
  data.add({2.0}, 0);
  KMeans km(KMeansParams{.k = 15}, Rng(4));
  km.fit(data);
  EXPECT_LE(km.k(), 2u);
}

TEST(KMeansTest, DeterministicForSameSeed) {
  const Dataset data = three_blobs();
  KMeans a(KMeansParams{.k = 3}, Rng(5));
  KMeans b(KMeansParams{.k = 3}, Rng(5));
  a.fit(data);
  b.fit(data);
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_DOUBLE_EQ(a.inertia(), b.inertia());
}

TEST(KMeansTest, DuplicatePointsHandled) {
  Dataset data;
  for (int i = 0; i < 10; ++i) data.add({1.0, 1.0}, 0);
  KMeans km(KMeansParams{.k = 3}, Rng(6));
  EXPECT_NO_THROW(km.fit(data));
  EXPECT_NEAR(km.inertia(), 0.0, 1e-12);
}

TEST(KMeansTest, EmptyDatasetThrows) {
  KMeans km(KMeansParams{.k = 2});
  EXPECT_THROW(km.fit(Dataset{}), std::invalid_argument);
}

TEST(ElbowTest, PicksTrueClusterCountOnBlobs) {
  const Dataset data = three_blobs(60);
  std::vector<double> inertias;
  const std::size_t k = elbow_select_k(data, 1, 8, Rng(7), &inertias);
  EXPECT_EQ(k, 3u);
  ASSERT_EQ(inertias.size(), 8u);
  // Inertia is non-increasing in k (tolerate tiny local-optimum noise).
  EXPECT_GT(inertias[0], inertias[7]);
}

TEST(ElbowTest, DegenerateRange) {
  const Dataset data = three_blobs(10);
  EXPECT_EQ(elbow_select_k(data, 4, 4), 4u);
  EXPECT_THROW(elbow_select_k(data, 5, 2), std::invalid_argument);
}

TEST(SquaredDistanceTest, Basics) {
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance({1}, {1}), 0.0);
}

}  // namespace
}  // namespace eslurm::ml
