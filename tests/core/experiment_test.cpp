// End-to-end tests of the Experiment facade: trace replay through every
// RM flavour, config parsing, and failure-enabled runs.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace eslurm::core {
namespace {

std::vector<sched::Job> tiny_trace(std::size_t n, int nodes, SimTime runtime) {
  std::vector<sched::Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    sched::Job job;
    job.id = i + 1;
    job.user = "u" + std::to_string(i % 3);
    job.name = "app" + std::to_string(i % 2);
    job.nodes = nodes;
    job.cores = nodes * 12;
    job.submit_time = minutes(static_cast<std::int64_t>(i));
    job.actual_runtime = runtime;
    job.user_estimate = runtime * 3;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(ExperimentTest, EslurmRunsTraceToCompletion) {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 64;
  config.satellite_count = 2;
  config.horizon = hours(2);
  Experiment experiment(config);
  experiment.submit_trace(tiny_trace(20, 4, minutes(5)));
  experiment.run();
  const auto report = experiment.report();
  EXPECT_EQ(report.jobs_finished, 20u);
  EXPECT_GT(report.system_utilization, 0.0);
  ASSERT_NE(experiment.eslurm(), nullptr);
}

TEST(ExperimentTest, CentralizedVariantsRunTheSameTrace) {
  for (const std::string rm : {"slurm", "lsf", "torque"}) {
    ExperimentConfig config;
    config.rm = rm;
    config.compute_nodes = 32;
    config.horizon = hours(2);
    Experiment experiment(config);
    experiment.submit_trace(tiny_trace(10, 2, minutes(3)));
    experiment.run();
    EXPECT_EQ(experiment.report().jobs_finished, 10u) << rm;
    EXPECT_EQ(experiment.eslurm(), nullptr) << rm;
  }
}

TEST(ExperimentTest, JobsPastHorizonAreNotSubmitted) {
  ExperimentConfig config;
  config.rm = "slurm";
  config.compute_nodes = 16;
  config.horizon = minutes(5);
  Experiment experiment(config);
  auto jobs = tiny_trace(3, 1, seconds(30));
  jobs[2].submit_time = hours(2);  // beyond horizon
  experiment.submit_trace(jobs);
  experiment.run();
  EXPECT_EQ(experiment.manager().pool().total_jobs(), 2u);
}

TEST(ExperimentTest, FailureInjectionRunsAndMonitors) {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 128;
  config.satellite_count = 2;
  config.horizon = hours(12);
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 200.0;  // plenty of failures
  Experiment experiment(config);
  experiment.submit_trace(tiny_trace(30, 2, minutes(10)));
  experiment.run();
  EXPECT_GT(experiment.failures().injected_failures(), 0u);
  EXPECT_GT(experiment.monitoring().alerts_raised(), 0u);
  // Most jobs still finish despite failures.
  EXPECT_GE(experiment.report().jobs_finished, 25u);
}

TEST(ExperimentTest, MasterIsImmuneToInjectedFailures) {
  ExperimentConfig config;
  config.rm = "slurm";
  config.compute_nodes = 8;
  config.horizon = hours(50);
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 1.0;  // brutal failure rate
  Experiment experiment(config);
  experiment.run();
  EXPECT_TRUE(experiment.cluster().alive(0));
  EXPECT_GT(experiment.failures().injected_failures(), 20u);
}

TEST(ExperimentTest, ConfigFromTextParsesEslurmKeys) {
  const auto config = Experiment::config_from_text(R"(
    # slurm.conf-style experiment description
    ResourceManager=eslurm
    Nodes=2048
    SatelliteNodes=4
    TreeWidth=32
    HorizonHours=6
    UseRuntimeEstimation=yes
    EstimatorAlpha=1.08
    EnableFailures=true
    NodeMtbfHours=500
    FrontendUsers=5000
    CacheTtlSeconds=7.5
  )");
  EXPECT_EQ(config.rm, "eslurm");
  EXPECT_EQ(config.compute_nodes, 2048u);
  EXPECT_EQ(config.satellite_count, 4u);
  EXPECT_EQ(config.rm_config.bcast.tree_width, 32);
  EXPECT_EQ(config.horizon, hours(6));
  EXPECT_TRUE(config.rm_config.use_runtime_estimation);
  EXPECT_DOUBLE_EQ(config.rm_config.estimator.alpha, 1.08);
  EXPECT_TRUE(config.enable_failures);
  EXPECT_DOUBLE_EQ(config.failure_params.node_mtbf_hours, 500.0);
  EXPECT_EQ(config.frontend.clients.users, 5000u);
  EXPECT_EQ(config.frontend.gateway.cache_ttl, from_seconds(7.5));
}

TEST(ExperimentTest, ConfigDefaultsSurviveEmptyText) {
  const auto config = Experiment::config_from_text("");
  EXPECT_EQ(config.rm, "eslurm");
  EXPECT_EQ(config.compute_nodes, 1024u);
  EXPECT_FALSE(config.enable_failures);
  EXPECT_EQ(config.frontend.clients.users, 0u);  // front-end off by default
}

TEST(ExperimentTest, FrontendIsBuiltOnlyWhenUsersArePresent) {
  ExperimentConfig off;
  off.compute_nodes = 32;
  off.horizon = minutes(2);
  Experiment disabled(off);
  EXPECT_EQ(disabled.frontend(), nullptr);

  ExperimentConfig on = off;
  on.frontend.clients.users = 500;
  on.frontend.clients.session_cycle_mean = minutes(30);
  Experiment enabled(on);
  ASSERT_NE(enabled.frontend(), nullptr);
  enabled.run();
  // The population drove traffic through the gateway into the RM stream.
  EXPECT_GT(enabled.frontend()->clients().completed(), 0u);
  EXPECT_EQ(enabled.manager().user_requests_issued(),
            enabled.frontend()->clients().completed());
}

TEST(ExperimentTest, GeneratedTraceReplaysThroughEslurm) {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.jobs_per_hour = 20;
  profile.max_nodes_per_job = 32;
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(hours(6));
  ASSERT_GT(jobs.size(), 50u);

  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 256;
  config.horizon = hours(12);
  config.rm_config.use_runtime_estimation = true;
  Experiment experiment(config);
  experiment.submit_trace(jobs);
  experiment.run();
  const auto report = experiment.report();
  EXPECT_GT(report.jobs_finished, jobs.size() / 2);
  EXPECT_GT(report.system_utilization, 0.0);
}

}  // namespace
}  // namespace eslurm::core
