// Integration tests of the resource managers over the simulated cluster:
// job lifecycle, dispatch styles, satellite fault tolerance, resource
// accounting, and the overload-crash model.
#include <gtest/gtest.h>

#include <optional>

#include "ledger_audit.hpp"
#include "rm/centralized_rm.hpp"
#include "rm/eslurm_rm.hpp"

namespace eslurm::rm {
namespace {

struct RmFixture : ::testing::Test {
  static constexpr std::size_t kCompute = 64;
  static constexpr std::size_t kSatellites = 2;
  sim::Engine engine;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;
  RmDeployment deployment;
  RmRuntimeConfig config;

  void SetUp() override {
    net::LinkModel link;
    link.jitter_frac = 0.0;
    const std::size_t total = 1 + kSatellites + kCompute;
    net.emplace(engine, total, link, Rng(1));
    cluster_model.emplace(engine, total);
    net->set_liveness(cluster_model->liveness());
    deployment = RmDeployment{};
    deployment.master = 0;
    for (std::size_t i = 0; i < kSatellites; ++i)
      deployment.satellites.push_back(static_cast<NodeId>(1 + i));
    for (std::size_t i = 0; i < kCompute; ++i)
      deployment.compute.push_back(static_cast<NodeId>(1 + kSatellites + i));
    config.sched_interval = seconds(5);
    config.sample_interval = seconds(10);
  }

  sched::Job make_job(sched::JobId id, int nodes, SimTime runtime,
                      SimTime submit = 0, SimTime estimate = 0) {
    sched::Job job;
    job.id = id;
    job.user = "u";
    job.name = "app";
    job.nodes = nodes;
    job.cores = nodes * 12;
    job.submit_time = submit;
    job.actual_runtime = runtime;
    job.user_estimate = estimate > 0 ? estimate : runtime * 2;
    return job;
  }

  /// Runs one job through the RM; times are relative to the current
  /// simulated clock so fixtures can be rebuilt mid-test.
  void run_one_job(ResourceManager& manager, sched::Job job, SimTime horizon) {
    const SimTime base = engine.now();
    manager.start(base + horizon);
    const SimTime at = base + job.submit_time;
    job.submit_time = at;
    engine.schedule_at(at, [&manager, job] {
      auto copy = job;
      manager.submit(std::move(copy));
    });
    engine.run_until(base + horizon);
  }
};

TEST_F(RmFixture, CentralizedSlurmRunsJobToCompletion) {
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  run_one_job(manager, make_job(1, 16, seconds(30)), minutes(10));
  const sched::Job& job = manager.pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  EXPECT_GE(job.release_time, job.start_time + seconds(30));
  EXPECT_EQ(manager.free_nodes(), static_cast<int>(kCompute));
  EXPECT_GT(manager.occupation_seconds().count(), 0u);
  EXPECT_GT(manager.launch_broadcast_seconds().count(), 0u);
  EXPECT_GT(manager.termination_broadcast_seconds().count(), 0u);
}

TEST_F(RmFixture, EslurmRunsJobThroughSatellites) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  run_one_job(manager, make_job(1, 60, seconds(30)), minutes(10));
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
  // The satellites actually carried traffic.
  const auto reports = manager.satellite_reports();
  std::uint64_t tasks = 0;
  for (const auto& r : reports) tasks += r.tasks_received;
  EXPECT_GT(tasks, 0u);
  EXPECT_EQ(manager.master_takeovers(), 0u);
}

TEST_F(RmFixture, EslurmMasterTouchesOnlySatellites) {
  // The defining property of the architecture: the ESLURM master sends
  // nothing to compute nodes directly (all job traffic relays).
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  config.enable_pings = false;
  run_one_job(manager, make_job(1, 60, seconds(30)), minutes(5));
  std::uint64_t compute_received_from_master = 0;
  // Messages received by compute nodes directly from node 0 cannot be
  // inspected per-sender, but the master's total sends should be ~the
  // number of subtasks + heartbeats, far below the 2x60 a direct
  // dispatch would need.
  EXPECT_LT(net->messages_sent(deployment.master), 40u);
  (void)compute_received_from_master;
}

TEST_F(RmFixture, JobKilledAtItsLimit) {
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  auto job = make_job(1, 4, hours(2));
  job.user_estimate = seconds(60);  // severe underestimate
  run_one_job(manager, job, minutes(30));
  const sched::Job& finished = manager.pool().get(1);
  EXPECT_EQ(finished.state, sched::JobState::TimedOut);
  EXPECT_LT(finished.observed_runtime(), hours(2));
  EXPECT_NEAR(to_seconds(finished.observed_runtime()), 60.0, 1.0);
}

TEST_F(RmFixture, BackfillKeepsClusterBusy) {
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(2));
  // A wide job blocks the head; narrow jobs should backfill behind it.
  engine.schedule_at(seconds(1), [&] {
    manager.submit(make_job(1, 60, minutes(30)));
    manager.submit(make_job(2, 64, minutes(10)));  // head, blocked
    for (sched::JobId id = 3; id < 10; ++id)
      manager.submit(make_job(id, 2, minutes(5)));
  });
  engine.run_until(hours(2));
  const auto report = manager.report(0, hours(1));
  EXPECT_EQ(report.jobs_finished, 9u);
  // Narrow jobs must not have waited for the wide head to finish.
  const sched::Job& narrow = manager.pool().get(5);
  EXPECT_LT(narrow.start_time, minutes(25));
}

TEST_F(RmFixture, SequentialDispatchSlowerThanTree) {
  // Fig. 7f mechanism: a sequential master pays per-node service time.
  CentralizedRm torque(engine, *net, *cluster_model, torque_profile(), deployment,
                       config);
  LedgerAudit torque_audit(engine, torque);
  run_one_job(torque, make_job(1, 60, seconds(10)), minutes(20));
  const double torque_occupation = torque.occupation_seconds().mean();

  SetUp();  // fresh world
  CentralizedRm slurm(engine, *net, *cluster_model, slurm_profile(), deployment,
                      config);
  LedgerAudit slurm_audit(engine, slurm);
  run_one_job(slurm, make_job(1, 60, seconds(10)), minutes(20));
  const double slurm_occupation = slurm.occupation_seconds().mean();

  EXPECT_GT(torque_occupation, slurm_occupation + 0.5);
}

TEST_F(RmFixture, SatelliteFailureReallocatesSubtask) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(minutes(30));
  cluster_model->fail(deployment.satellites[0]);  // kill satellite 0
  engine.schedule_at(seconds(1), [&] { manager.submit(make_job(1, 60, seconds(20))); });
  engine.run_until(minutes(30));
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
  // At least one BT failure should have moved satellite 0 out of service.
  EXPECT_GE(manager.subtask_reallocations(), 1u);
  const auto state0 = manager.satellite_state(0);
  EXPECT_TRUE(state0 == SatelliteState::Fault || state0 == SatelliteState::Down);
}

TEST_F(RmFixture, AllSatellitesDeadMasterTakesOver) {
  config.enable_pings = false;
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(minutes(40));
  for (const NodeId sat : deployment.satellites) cluster_model->fail(sat);
  engine.schedule_at(seconds(1), [&] { manager.submit(make_job(1, 32, seconds(20))); });
  engine.run_until(minutes(40));
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
  EXPECT_GE(manager.master_takeovers(), 1u);
}

TEST_F(RmFixture, SatelliteRecoversThroughHeartbeat) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  engine.schedule_at(seconds(30), [&] {
    cluster_model->fail(deployment.satellites[0]);
  });
  // Restore before the 20-minute FAULT timeout.
  engine.schedule_at(minutes(10), [&] {
    cluster_model->restore(deployment.satellites[0]);
  });
  engine.run_until(minutes(15));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Running);
}

TEST_F(RmFixture, FaultDwellTimeoutMarksSatelliteDown) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(2));
  engine.schedule_at(seconds(30), [&] {
    cluster_model->fail(deployment.satellites[1]);
  });
  engine.run_until(minutes(30));
  EXPECT_EQ(manager.satellite_state(1), SatelliteState::Down);
  // Restoring the node does not bring a DOWN satellite back (Table II:
  // administrator intervention required).
  cluster_model->restore(deployment.satellites[1]);
  engine.run_until(minutes(40));
  EXPECT_EQ(manager.satellite_state(1), SatelliteState::Down);
}

TEST_F(RmFixture, FpTreeStatsAccumulate) {
  cluster::StaticFailurePredictor predictor({deployment.compute[5]});
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config,
                   &predictor);
  LedgerAudit audit(engine, manager);
  run_one_job(manager, make_job(1, 60, seconds(10)), minutes(10));
  ASSERT_NE(manager.fp_tree_stats(), nullptr);
  EXPECT_GT(manager.fp_trees_constructed(), 0u);
  EXPECT_GT(manager.fp_tree_stats()->predicted, 0u);
}

TEST_F(RmFixture, PlainTreeVariantReportsNoFpStats) {
  config.use_fp_tree = false;
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  EXPECT_EQ(manager.fp_tree_stats(), nullptr);
  EXPECT_EQ(manager.fp_trees_constructed(), 0u);
}

TEST_F(RmFixture, EstimatorFillsEstimates) {
  config.use_runtime_estimation = true;
  config.estimator.min_history = 5;
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(4));
  // A stream of identical jobs; later ones should use model estimates.
  for (int i = 0; i < 30; ++i) {
    engine.schedule_at(minutes(i * 5), [&, i] {
      auto job = make_job(100 + i, 4, seconds(120));
      job.user_estimate = hours(4);  // terrible user estimate
      manager.submit(std::move(job));
    });
  }
  engine.run_until(hours(4));
  ASSERT_NE(manager.estimator(), nullptr);
  EXPECT_TRUE(manager.estimator()->model_ready());
  const sched::Job& late = manager.pool().get(129);
  EXPECT_GT(late.estimate_used, 0);
  EXPECT_EQ(late.state, sched::JobState::Completed);
}

TEST_F(RmFixture, MasterStatsTrackResources) {
  CentralizedRm manager(engine, *net, *cluster_model, sge_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  run_one_job(manager, make_job(1, 16, seconds(30)), minutes(10));
  DaemonStats& stats = manager.master_stats();
  EXPECT_GT(stats.cpu_seconds(), 0.0);
  EXPECT_GT(stats.rss_mb(), 0.0);
  EXPECT_GT(stats.vmem_gb(), 0.0);
  EXPECT_FALSE(stats.rss_series().empty());
  // SGE keeps a persistent connection per compute node.
  EXPECT_GE(stats.sockets_now(), static_cast<int>(kCompute));
}

TEST_F(RmFixture, OverloadCrashAndRecovery) {
  RmCostProfile fragile = slurm_profile();
  fragile.socket_crash_threshold = 1;   // any connection is overload
  fragile.crash_base_rate_per_hour = 500.0;  // crash almost surely
  fragile.reboot_time = minutes(5);
  CentralizedRm manager(engine, *net, *cluster_model, fragile, deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(3));
  // Keep submitting so there is always socket traffic.
  for (int i = 0; i < 40; ++i) {
    engine.schedule_at(minutes(i * 4), [&, i] {
      manager.submit(make_job(1 + i, 2, minutes(10)));
    });
  }
  engine.run_until(hours(3));
  EXPECT_GE(manager.crash_count(), 1u);
  EXPECT_GT(manager.total_downtime(), 0);
  // Jobs still complete across crashes (deferred completions drain on
  // each recovery), even if the absurd hazard keeps re-crashing it.
  EXPECT_GE(manager.pool().finished().size(), 1u);
}

TEST_F(RmFixture, UserRequestStreamStartsEmptyAndGuarded) {
  // Regression: the ratio accessors must return 0, not divide 0/0, when
  // the front-end has fed nothing yet.
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  EXPECT_EQ(manager.user_requests_issued(), 0u);
  EXPECT_EQ(manager.user_requests_failed(), 0u);
  EXPECT_DOUBLE_EQ(manager.request_failure_rate(), 0.0);
  EXPECT_DOUBLE_EQ(manager.request_response_seconds().mean(), 0.0);
}

TEST_F(RmFixture, NoteUserRequestAggregatesTheFrontendStream) {
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.note_user_request(0.5, false);
  manager.note_user_request(1.5, false);
  manager.note_user_request(30.0, true);
  manager.note_user_request(0.2, true);
  EXPECT_EQ(manager.user_requests_issued(), 4u);
  EXPECT_EQ(manager.user_requests_failed(), 2u);
  EXPECT_DOUBLE_EQ(manager.request_failure_rate(), 0.5);
  EXPECT_DOUBLE_EQ(manager.request_response_seconds().mean(), 8.05);
  EXPECT_DOUBLE_EQ(manager.request_response_seconds().max(), 30.0);
}

TEST_F(RmFixture, ProfileLookup) {
  EXPECT_EQ(profile_by_name("slurm").name, "slurm");
  EXPECT_EQ(profile_by_name("openpbs").name, "openpbs");
  EXPECT_THROW(profile_by_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace eslurm::rm
