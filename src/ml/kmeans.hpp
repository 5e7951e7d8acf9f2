// K-means++ clustering (Arthur & Vassilvitskii 2007) plus the classical
// elbow heuristic -- the combination Section V-A of the paper uses to
// group historical jobs before training per-cluster SVR models.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace eslurm::ml {

struct KMeansParams {
  std::size_t k = 15;          ///< paper default from the elbow method
  std::size_t max_iters = 100;
  double tolerance = 1e-6;     ///< relative inertia improvement stop
};

class KMeans {
 public:
  explicit KMeans(KMeansParams params, Rng rng = Rng(12345));

  /// Fits on the feature rows of `data` (targets are ignored).
  /// If there are fewer rows than k, k is reduced to the row count.
  void fit(const Dataset& data);

  std::size_t k() const { return centroids_.size(); }
  const std::vector<std::vector<double>>& centroids() const { return centroids_; }

  /// Cluster labels for every training row (valid after fit()).
  const std::vector<std::size_t>& labels() const { return labels_; }

  /// Sum of squared distances to assigned centroids.
  double inertia() const { return inertia_; }

 private:
  double run_lloyd(const std::vector<std::vector<double>>& rows);
  std::vector<std::vector<double>> seed_plus_plus(
      const std::vector<std::vector<double>>& rows, std::size_t k);

  KMeansParams params_;
  Rng rng_;
  std::vector<std::vector<double>> centroids_;
  std::vector<std::size_t> labels_;
  double inertia_ = 0.0;
};

/// Elbow method: fits k-means for k in [k_min, k_max] and picks the k with
/// the largest distance from the inertia curve to the straight line joining
/// its endpoints (the standard "kneedle"-style geometric criterion cited by
/// the paper's references).
std::size_t elbow_select_k(const Dataset& data, std::size_t k_min, std::size_t k_max,
                           Rng rng = Rng(999), std::vector<double>* inertias = nullptr);

/// Squared Euclidean distance helper shared with the predictor module.
double squared_distance(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace eslurm::ml
