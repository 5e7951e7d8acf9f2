#include "cluster/monitoring.hpp"

#include <gtest/gtest.h>

namespace eslurm::cluster {
namespace {

struct MonitoringFixture : ::testing::Test {
  sim::Engine engine;
};

TEST_F(MonitoringFixture, PerfectSensorPredictsBeforeFailure) {
  ClusterModel cluster(engine, 200);
  FailureModelParams fparams;
  fparams.node_mtbf_hours = 50.0;
  fparams.alert_lead_mean_minutes = 30.0;
  FailureModel failures(cluster, Rng(1), fparams);
  MonitoringParams mparams;
  mparams.hit_rate = 1.0;
  mparams.false_alarms_per_node_day = 0.0;
  MonitoringSystem monitoring(cluster, failures, Rng(2), mparams);

  // Every node that goes down must have been predicted at failure time.
  int failures_seen = 0, predicted_at_failure = 0;
  cluster.add_observer([&](NodeId id, NodeState, NodeState st) {
    if (st == NodeState::Down) {
      ++failures_seen;
      if (monitoring.predicted_failed(id)) ++predicted_at_failure;
    }
  });
  failures.start(hours(100));
  monitoring.start(hours(100));
  engine.run();
  ASSERT_GT(failures_seen, 0);
  EXPECT_EQ(failures_seen, predicted_at_failure);
  EXPECT_EQ(monitoring.genuine_alerts(), monitoring.alerts_raised());
}

TEST_F(MonitoringFixture, HitRateControlsCoverage) {
  ClusterModel cluster(engine, 500);
  FailureModelParams fparams;
  fparams.node_mtbf_hours = 20.0;
  FailureModel failures(cluster, Rng(3), fparams);
  MonitoringParams mparams;
  mparams.hit_rate = 0.5;
  mparams.false_alarms_per_node_day = 0.0;
  MonitoringSystem monitoring(cluster, failures, Rng(4), mparams);
  int failures_seen = 0, predicted = 0;
  cluster.add_observer([&](NodeId id, NodeState, NodeState st) {
    if (st == NodeState::Down) {
      ++failures_seen;
      if (monitoring.predicted_failed(id)) ++predicted;
    }
  });
  failures.start(hours(200));
  engine.run();
  ASSERT_GT(failures_seen, 50);
  const double coverage = static_cast<double>(predicted) / failures_seen;
  EXPECT_GT(coverage, 0.35);
  EXPECT_LT(coverage, 0.65);
}

TEST_F(MonitoringFixture, FalseAlarmsRaiseAndExpire) {
  ClusterModel cluster(engine, 1000);
  FailureModel failures(cluster, Rng(5), FailureModelParams{.node_mtbf_hours = 1e12});
  MonitoringParams mparams;
  mparams.hit_rate = 0.0;
  mparams.false_alarms_per_node_day = 0.5;  // plenty of alarms
  mparams.false_alarm_hold_hours = 1.0;
  MonitoringSystem monitoring(cluster, failures, Rng(6), mparams);
  monitoring.start(hours(24));
  engine.run_until(hours(12));
  EXPECT_GT(monitoring.false_alarms(), 0u);
  EXPECT_GT(monitoring.predicted_count(), 0u);
  // After the horizon plus hold time, all alarms expire.
  engine.run();
  EXPECT_EQ(monitoring.predicted_count(), 0u);
}

TEST_F(MonitoringFixture, RestoreClearsAlert) {
  ClusterModel cluster(engine, 10);
  FailureModel failures(cluster, Rng(7));
  MonitoringParams mparams;
  mparams.hit_rate = 1.0;
  mparams.false_alarms_per_node_day = 0.0;
  MonitoringSystem monitoring(cluster, failures, Rng(8), mparams);
  failures.fail_now(3, seconds(60));
  engine.run_until(seconds(1));
  EXPECT_TRUE(monitoring.predicted_failed(3));
  engine.run();  // node restores
  EXPECT_FALSE(monitoring.predicted_failed(3));
}

TEST_F(MonitoringFixture, StaticAndNullPredictors) {
  StaticFailurePredictor fixed({2, 4});
  EXPECT_TRUE(fixed.predicted_failed(2));
  EXPECT_FALSE(fixed.predicted_failed(3));
  EXPECT_EQ(fixed.predicted_count(), 2u);
  NullFailurePredictor null;
  EXPECT_FALSE(null.predicted_failed(2));
  EXPECT_EQ(null.predicted_count(), 0u);
}

}  // namespace
}  // namespace eslurm::cluster
