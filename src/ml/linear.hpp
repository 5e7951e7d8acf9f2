// Bayesian ridge regression (evidence-approximation hyper-parameter
// estimation): one leg of the IRPA ensemble baseline (Wu et al.).
#pragma once

#include <vector>

#include "ml/dataset.hpp"

namespace eslurm::ml {

/// Solves the symmetric positive-definite system A w = b in place via
/// Cholesky decomposition.  A is row-major d x d.  Throws on a
/// non-positive-definite matrix.
std::vector<double> cholesky_solve(std::vector<double> a, std::vector<double> b,
                                   std::size_t d);

/// Bayesian ridge: iteratively re-estimates the noise precision (alpha)
/// and weight precision (lambda) by the evidence approximation, yielding
/// an automatically regularized linear fit.
class BayesianRidge final : public Regressor {
 public:
  explicit BayesianRidge(std::size_t max_iters = 50, double tol = 1e-4);

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;
  bool trained() const override { return trained_; }

  double alpha() const { return alpha_; }    ///< noise precision
  double lambda() const { return lambda_; }  ///< weight precision

 private:
  std::size_t max_iters_;
  double tol_;
  bool trained_ = false;
  std::vector<double> w_;
  double b_ = 0.0;
  double alpha_ = 1.0, lambda_ = 1.0;
};

}  // namespace eslurm::ml
