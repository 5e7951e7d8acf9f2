#include "ml/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace eslurm::ml {

double squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

KMeans::KMeans(KMeansParams params, Rng rng) : params_(params), rng_(rng) {
  if (params_.k == 0) throw std::invalid_argument("KMeans: k must be >= 1");
}

std::vector<std::vector<double>> KMeans::seed_plus_plus(
    const std::vector<std::vector<double>>& rows, std::size_t k) {
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  // First center uniformly at random.
  centers.push_back(rows[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))]);
  std::vector<double> d2(rows.size(), 0.0);
  while (centers.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (const auto& c : centers) best = std::min(best, squared_distance(rows[i], c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All remaining points coincide with existing centers; duplicate one.
      centers.push_back(centers.front());
      continue;
    }
    // Sample proportional to squared distance (the "++" seeding).
    double pick = rng_.next_double() * total;
    std::size_t chosen = rows.size() - 1;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centers.push_back(rows[chosen]);
  }
  return centers;
}

double KMeans::run_lloyd(const std::vector<std::vector<double>>& rows) {
  const std::size_t n = rows.size();
  const std::size_t d = rows.front().size();
  const std::size_t k = centroids_.size();
  labels_.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < params_.max_iters; ++iter) {
    // Assignment step.
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double dist = squared_distance(rows[i], centroids_[c]);
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      labels_[i] = best_c;
      inertia += best;
    }
    // Update step.
    std::vector<std::vector<double>> sums(k, std::vector<double>(d, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[labels_[i]];
      for (std::size_t j = 0; j < d; ++j) sums[labels_[i]][j] += rows[i][j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (std::size_t j = 0; j < d; ++j)
        centroids_[c][j] = sums[c][j] / static_cast<double>(counts[c]);
    }
    if (prev_inertia - inertia <= params_.tolerance * std::max(1.0, prev_inertia)) {
      prev_inertia = inertia;
      break;
    }
    prev_inertia = inertia;
  }
  return prev_inertia;
}

void KMeans::fit(const Dataset& data) {
  data.check();
  if (data.rows() == 0) throw std::invalid_argument("KMeans::fit: empty dataset");
  const std::size_t k = std::min(params_.k, data.rows());
  centroids_ = seed_plus_plus(data.x, k);
  inertia_ = run_lloyd(data.x);
}

std::size_t elbow_select_k(const Dataset& data, std::size_t k_min, std::size_t k_max,
                           Rng rng, std::vector<double>* inertias) {
  if (k_min < 1 || k_max < k_min)
    throw std::invalid_argument("elbow_select_k: bad k range");
  k_max = std::min(k_max, std::max<std::size_t>(1, data.rows()));
  k_min = std::min(k_min, k_max);
  std::vector<double> curve;
  for (std::size_t k = k_min; k <= k_max; ++k) {
    KMeans km(KMeansParams{.k = k}, rng.fork());
    km.fit(data);
    curve.push_back(km.inertia());
  }
  if (inertias) *inertias = curve;
  if (curve.size() <= 2) return k_min;
  // Max perpendicular distance from the line between the curve endpoints.
  const double x1 = static_cast<double>(k_min), y1 = curve.front();
  const double x2 = static_cast<double>(k_max), y2 = curve.back();
  const double norm = std::hypot(x2 - x1, y2 - y1);
  std::size_t best_k = k_min;
  double best_d = -1.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double x0 = static_cast<double>(k_min + i), y0 = curve[i];
    const double dist =
        std::abs((y2 - y1) * x0 - (x2 - x1) * y0 + x2 * y1 - y2 * x1) / std::max(norm, 1e-12);
    if (dist > best_d) {
      best_d = dist;
      best_k = k_min + i;
    }
  }
  return best_k;
}

}  // namespace eslurm::ml
