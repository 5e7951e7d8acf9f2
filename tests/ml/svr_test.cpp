#include "ml/svr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace eslurm::ml {
namespace {

TEST(SvrTest, FitsLinearFunctionWithLinearKernel) {
  Rng rng(1);
  Dataset data;
  for (int i = 0; i < 120; ++i) {
    const double x1 = rng.uniform(-2, 2), x2 = rng.uniform(-2, 2);
    data.add({x1, x2}, 3.0 * x1 - 2.0 * x2 + 1.0);
  }
  Svr svr(SvrParams{.kernel = Kernel::Linear, .c = 100.0, .epsilon = 0.01});
  svr.fit(data);
  double max_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double x1 = rng.uniform(-2, 2), x2 = rng.uniform(-2, 2);
    max_err = std::max(max_err,
                       std::abs(svr.predict({x1, x2}) - (3.0 * x1 - 2.0 * x2 + 1.0)));
  }
  // The diagonal jitter regularizes slightly, so allow a few percent of
  // the +-11 target range.
  EXPECT_LT(max_err, 0.5);
}

TEST(SvrTest, FitsNonlinearFunctionWithRbfKernel) {
  Rng rng(2);
  Dataset data;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-3, 3);
    data.add({x}, std::sin(x));
  }
  Svr svr(SvrParams{.kernel = Kernel::Rbf, .c = 50.0, .epsilon = 0.02, .gamma = 2.0});
  svr.fit(data);
  std::vector<double> truth, pred;
  for (double x = -2.5; x <= 2.5; x += 0.1) {
    truth.push_back(std::sin(x));
    pred.push_back(svr.predict({x}));
  }
  EXPECT_GT(r2_score(truth, pred), 0.98);
}

TEST(SvrTest, ConstantTargetPredictsConstant) {
  Dataset data;
  for (int i = 0; i < 20; ++i) data.add({static_cast<double>(i)}, 7.0);
  Svr svr(SvrParams{.epsilon = 0.01});
  svr.fit(data);
  EXPECT_NEAR(svr.predict({10.0}), 7.0, 0.2);
}

TEST(SvrTest, InvalidParamsThrow) {
  EXPECT_THROW(Svr(SvrParams{.c = 0.0}), std::invalid_argument);
  EXPECT_THROW(Svr(SvrParams{.epsilon = -1.0}), std::invalid_argument);
}

TEST(SvrTest, PredictBeforeFitThrows) {
  Svr svr;
  EXPECT_THROW(svr.predict({1.0}), std::logic_error);
  EXPECT_FALSE(svr.trained());
}

TEST(SvrTest, EmptyDatasetThrows) {
  Svr svr;
  EXPECT_THROW(svr.fit(Dataset{}), std::invalid_argument);
}

TEST(SvrTest, MaxRowsGuardTruncatesTraining) {
  Rng rng(4);
  Dataset data;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0, 1);
    data.add({x}, x);
  }
  SvrParams p;
  p.kernel = Kernel::Linear;
  p.max_rows = 10;
  Svr svr(p);
  svr.fit(data);
  EXPECT_NEAR(svr.predict({0.5}), 0.5, 0.3);
}

}  // namespace
}  // namespace eslurm::ml
