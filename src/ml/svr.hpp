// Epsilon-support-vector regression, the per-cluster estimation model of
// Section V-A.
//
// Solver: coordinate descent on the dual in the beta = alpha - alpha*
// parameterization of the *bias-free* SVR: targets are centered before
// solving and the mean is restored at prediction time, which removes the
// equality constraint, keeps the kernel matrix diagonally strong, and
// makes each coordinate update a closed-form soft threshold.  Training
// sets here are small (an interest window holds at most ~700 jobs split
// over ~15 clusters), so the dense kernel matrix is cheap and the solver
// converges in a handful of sweeps.
#pragma once

#include <vector>

#include "ml/dataset.hpp"

namespace eslurm::ml {

enum class Kernel { Rbf, Linear };

struct SvrParams {
  Kernel kernel = Kernel::Rbf;
  double c = 10.0;           ///< box constraint
  double epsilon = 0.1;      ///< insensitive-tube half width
  double gamma = 0.0;        ///< RBF width; <= 0 means 1/num_features
  std::size_t max_sweeps = 200;
  double tolerance = 1e-5;   ///< max |beta| change per sweep to stop
  std::size_t max_rows = 4000;  ///< guard against quadratic blow-up
};

class Svr final : public Regressor {
 public:
  explicit Svr(SvrParams params = {});

  void fit(const Dataset& data) override;
  double predict(const std::vector<double>& features) const override;
  bool trained() const override { return trained_; }

  const SvrParams& params() const { return params_; }

 private:
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  SvrParams params_;
  double gamma_ = 1.0;
  bool trained_ = false;
  double y_offset_ = 0.0;  ///< target mean, centered out before solving
  std::vector<std::vector<double>> support_x_;
  std::vector<double> beta_;
};

}  // namespace eslurm::ml
