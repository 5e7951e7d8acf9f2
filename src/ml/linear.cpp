#include "ml/linear.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eslurm::ml {
namespace {

// Centers the dataset; linear fits solve for weights on centered data and
// recover the intercept as y_mean - w . x_mean.  Conditioning is far
// better than fitting an explicit constant column.
struct Centered {
  std::vector<double> x_mean;
  double y_mean = 0.0;
};

Centered center_stats(const Dataset& data) {
  Centered c;
  const std::size_t n = data.rows(), d = data.cols();
  c.x_mean.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    c.y_mean += data.y[i];
    for (std::size_t j = 0; j < d; ++j) c.x_mean[j] += data.x[i][j];
  }
  c.y_mean /= static_cast<double>(n);
  for (auto& m : c.x_mean) m /= static_cast<double>(n);
  return c;
}

// Builds Xc'Xc (row-major) and Xc'yc over centered data.
void normal_equations(const Dataset& data, const Centered& c,
                      std::vector<double>& xtx, std::vector<double>& xty) {
  const std::size_t n = data.rows(), d = data.cols();
  xtx.assign(d * d, 0.0);
  xty.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double yc = data.y[i] - c.y_mean;
    for (std::size_t a = 0; a < d; ++a) {
      const double xa = data.x[i][a] - c.x_mean[a];
      xty[a] += xa * yc;
      for (std::size_t b = a; b < d; ++b)
        xtx[a * d + b] += xa * (data.x[i][b] - c.x_mean[b]);
    }
  }
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = 0; b < a; ++b) xtx[a * d + b] = xtx[b * d + a];
}

}  // namespace

std::vector<double> cholesky_solve(std::vector<double> a, std::vector<double> b,
                                   std::size_t d) {
  // In-place Cholesky: a = L L^T (lower triangle).
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a[i * d + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * d + k] * a[j * d + k];
      if (i == j) {
        if (s <= 0.0) throw std::runtime_error("cholesky_solve: matrix not SPD");
        a[i * d + j] = std::sqrt(s);
      } else {
        a[i * d + j] = s / a[j * d + j];
      }
    }
  }
  // Forward substitution L z = b.
  for (std::size_t i = 0; i < d; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a[i * d + k] * b[k];
    b[i] = s / a[i * d + i];
  }
  // Back substitution L^T w = z.
  for (std::size_t ii = d; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < d; ++k) s -= a[k * d + ii] * b[k];
    b[ii] = s / a[ii * d + ii];
  }
  return b;
}

BayesianRidge::BayesianRidge(std::size_t max_iters, double tol)
    : max_iters_(max_iters), tol_(tol) {}

void BayesianRidge::fit(const Dataset& data) {
  data.check();
  const std::size_t n = data.rows(), d = data.cols();
  if (n == 0) throw std::invalid_argument("BayesianRidge::fit: empty dataset");
  const Centered c = center_stats(data);
  std::vector<double> xtx, xty;
  normal_equations(data, c, xtx, xty);

  alpha_ = 1.0;
  lambda_ = 1.0;
  w_.assign(d, 0.0);
  for (std::size_t iter = 0; iter < max_iters_; ++iter) {
    // Posterior mean: (lambda I + alpha X'X) w = alpha X'y.
    std::vector<double> a(xtx);
    std::vector<double> b(xty);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t k = 0; k < d; ++k) a[j * d + k] *= alpha_;
      a[j * d + j] += lambda_ + 1e-9;
      b[j] *= alpha_;
    }
    const std::vector<double> w_new = cholesky_solve(std::move(a), std::move(b), d);

    // Effective number of well-determined parameters:
    //   gamma = d - lambda * trace(S), with S the posterior covariance.
    std::vector<double> a2(xtx);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t k = 0; k < d; ++k) a2[j * d + k] *= alpha_;
      a2[j * d + j] += lambda_ + 1e-9;
    }
    double trace_s = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      std::vector<double> e(d, 0.0);
      e[j] = 1.0;
      const auto col = cholesky_solve(a2, std::move(e), d);
      trace_s += col[j];
    }
    const double gamma = static_cast<double>(d) - lambda_ * trace_s;

    double sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pred = 0.0;
      for (std::size_t j = 0; j < d; ++j)
        pred += w_new[j] * (data.x[i][j] - c.x_mean[j]);
      const double r = (data.y[i] - c.y_mean) - pred;
      sse += r * r;
    }

    double w_norm2 = 0.0;
    for (double wj : w_new) w_norm2 += wj * wj;
    const double alpha_new =
        (static_cast<double>(n) - gamma) / std::max(sse, 1e-12);
    const double lambda_new = gamma / std::max(w_norm2, 1e-12);

    double delta = 0.0;
    for (std::size_t j = 0; j < d; ++j) delta += std::abs(w_new[j] - w_[j]);
    w_ = w_new;
    alpha_ = std::clamp(alpha_new, 1e-9, 1e9);
    lambda_ = std::clamp(lambda_new, 1e-9, 1e9);
    if (delta < tol_) break;
  }
  b_ = c.y_mean;
  for (std::size_t j = 0; j < d; ++j) b_ -= w_[j] * c.x_mean[j];
  trained_ = true;
}

double BayesianRidge::predict(const std::vector<double>& features) const {
  if (!trained_) throw std::logic_error("BayesianRidge::predict before fit");
  double out = b_;
  for (std::size_t j = 0; j < w_.size(); ++j) out += w_[j] * features[j];
  return out;
}

}  // namespace eslurm::ml
