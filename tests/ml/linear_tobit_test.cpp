#include <gtest/gtest.h>

#include <cmath>

#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/tobit.hpp"
#include "util/rng.hpp"

namespace eslurm::ml {
namespace {

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  const auto x = cholesky_solve({4, 2, 2, 3}, {10, 9}, 2);
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskyTest, RejectsNonSpd) {
  EXPECT_THROW(cholesky_solve({0, 0, 0, 0}, {1, 1}, 2), std::runtime_error);
}

TEST(BayesianRidgeTest, FitsAndEstimatesNoise) {
  Rng rng(3);
  Dataset data;
  const double noise_sd = 0.5;
  for (int i = 0; i < 500; ++i) {
    const double x1 = rng.uniform(-3, 3), x2 = rng.uniform(-3, 3);
    data.add({x1, x2}, 1.0 * x1 + 4.0 * x2 + rng.normal(0, noise_sd));
  }
  BayesianRidge br;
  br.fit(data);
  EXPECT_NEAR(br.predict({1.0, 1.0}), 5.0, 0.2);
  // alpha estimates the noise precision 1/sigma^2 = 4.
  EXPECT_NEAR(br.alpha(), 1.0 / (noise_sd * noise_sd), 1.5);
}

TEST(BayesianRidgeTest, MisuseThrows) {
  BayesianRidge br;
  EXPECT_THROW(br.predict({1.0}), std::logic_error);
  EXPECT_THROW(br.fit(Dataset{}), std::invalid_argument);
}

TEST(TobitTest, UncensoredMatchesLinearFit) {
  Rng rng(4);
  Dataset data;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(-2, 2);
    data.add({x}, 3.0 * x + 1.0 + rng.normal(0, 0.2));
  }
  TobitRegression tobit;
  tobit.fit(data);
  EXPECT_NEAR(tobit.predict({1.0}), 4.0, 0.15);
  EXPECT_NEAR(tobit.predict({-1.0}), -2.0, 0.15);
  EXPECT_NEAR(tobit.sigma(), 0.2, 0.1);
}

TEST(TobitTest, CorrectsForRightCensoring) {
  // True relation y = 2x; observations are clipped at 3.  A naive fit on
  // the clipped data underestimates the slope; Tobit should not.
  Rng rng(5);
  CensoredDataset cd;
  Dataset naive;
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(0, 4);
    const double y_true = 2.0 * x + rng.normal(0, 0.3);
    const bool censored = y_true > 3.0;
    const double y_obs = censored ? 3.0 : y_true;
    cd.add({x}, y_obs, censored);
    naive.add({x}, y_obs);
  }
  TobitRegression tobit(TobitParams{.max_iters = 3000, .learning_rate = 0.1});
  tobit.fit_censored(cd);
  BayesianRidge linear;
  linear.fit(naive);
  const double tobit_pred = tobit.predict({3.5});  // true value 7
  const double naive_pred = linear.predict({3.5});
  EXPECT_GT(tobit_pred, naive_pred + 0.5);
  EXPECT_NEAR(tobit_pred, 7.0, 1.0);
}

TEST(TobitTest, CensorFlagSizeMismatchThrows) {
  CensoredDataset cd;
  cd.data.add({1.0}, 1.0);
  TobitRegression tobit;
  EXPECT_THROW(tobit.fit_censored(cd), std::invalid_argument);
}

TEST(MetricsTest, PerfectAndMeanPredictions) {
  const std::vector<double> truth{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean_squared_error(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(mean_absolute_error(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r2_score(truth, mean_pred), 0.0, 1e-12);
}

TEST(MetricsTest, MismatchedSizesThrow) {
  EXPECT_THROW(mean_squared_error({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(r2_score({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace eslurm::ml
