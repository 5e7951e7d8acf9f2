#include "ml/svr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kmeans.hpp"  // squared_distance

namespace eslurm::ml {

Svr::Svr(SvrParams params) : params_(params) {
  if (params_.c <= 0) throw std::invalid_argument("Svr: C must be positive");
  if (params_.epsilon < 0) throw std::invalid_argument("Svr: epsilon must be >= 0");
}

double Svr::kernel(const std::vector<double>& a, const std::vector<double>& b) const {
  switch (params_.kernel) {
    case Kernel::Rbf:
      return std::exp(-gamma_ * squared_distance(a, b));
    case Kernel::Linear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return dot;
    }
  }
  return 0.0;
}

void Svr::fit(const Dataset& data) {
  data.check();
  std::size_t n = data.rows();
  if (n == 0) throw std::invalid_argument("Svr::fit: empty dataset");
  n = std::min(n, params_.max_rows);
  gamma_ = params_.gamma > 0 ? params_.gamma
                             : 1.0 / static_cast<double>(std::max<std::size_t>(1, data.cols()));

  support_x_.assign(data.x.begin(), data.x.begin() + static_cast<std::ptrdiff_t>(n));
  beta_.assign(n, 0.0);

  // Center the targets: the bias-augmented kernel (K + 1) can express a
  // global offset, but pushing the full target mean through that rank-1
  // component makes coordinate descent crawl.  Solve on residuals.
  y_offset_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) y_offset_ += data.y[i];
  y_offset_ /= static_cast<double>(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = data.y[i] - y_offset_;

  // Dense kernel matrix.  No bias augmentation: the centered-target
  // offset plays the bias role, keeping the matrix diagonally strong so
  // coordinate descent converges in a handful of sweeps.
  std::vector<double> k(n * n);
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(support_x_[i], support_x_[j]);
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
    diag_mean += k[i * n + i];
  }
  diag_mean /= static_cast<double>(n);
  // Diagonal jitter: workload feature spaces contain near-duplicate rows
  // (the same job configuration resubmitted), which make the kernel
  // matrix nearly singular and coordinate descent arbitrarily slow.  A
  // small ridge restores strong convexity at negligible bias.
  for (std::size_t i = 0; i < n; ++i) k[i * n + i] += 0.05 * diag_mean;

  // f[i] = sum_j K'_ij beta_j, maintained incrementally.
  std::vector<double> f(n, 0.0);
  for (std::size_t sweep = 0; sweep < params_.max_sweeps; ++sweep) {
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double kii = k[i * n + i];
      if (kii <= 1e-12) continue;
      const double residual = y[i] - (f[i] - kii * beta_[i]);
      double nb = 0.0;
      if (residual > params_.epsilon) {
        nb = (residual - params_.epsilon) / kii;
      } else if (residual < -params_.epsilon) {
        nb = (residual + params_.epsilon) / kii;
      }
      nb = std::clamp(nb, -params_.c, params_.c);
      const double delta = nb - beta_[i];
      if (delta != 0.0) {
        const double* row = &k[i * n];
        for (std::size_t j = 0; j < n; ++j) f[j] += delta * row[j];
        beta_[i] = nb;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < params_.tolerance) break;
  }

  // Compact to actual support vectors to speed up prediction.
  std::vector<std::vector<double>> sx;
  std::vector<double> sb;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(beta_[i]) > 1e-12) {
      sx.push_back(std::move(support_x_[i]));
      sb.push_back(beta_[i]);
    }
  }
  support_x_ = std::move(sx);
  beta_ = std::move(sb);
  trained_ = true;
}

double Svr::predict(const std::vector<double>& features) const {
  if (!trained_) throw std::logic_error("Svr::predict before fit");
  double out = y_offset_;
  for (std::size_t i = 0; i < support_x_.size(); ++i)
    out += beta_[i] * kernel(support_x_[i], features);
  return out;
}

}  // namespace eslurm::ml
