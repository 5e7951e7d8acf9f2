// Tests for administrative node control (drain/resume), job
// dependencies, and the accounting-database integration of the RM.
#include <gtest/gtest.h>

#include <optional>

#include "ledger_audit.hpp"
#include "rm/centralized_rm.hpp"
#include "rm/eslurm_rm.hpp"

namespace eslurm::rm {
namespace {

struct AdminFixture : ::testing::Test {
  sim::Engine engine;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;
  RmDeployment deployment;
  RmRuntimeConfig config;

  void SetUp() override {
    net::LinkModel link;
    link.jitter_frac = 0.0;
    net.emplace(engine, 19, link, Rng(1));
    cluster_model.emplace(engine, 19);
    net->set_liveness(cluster_model->liveness());
    deployment.master = 0;
    deployment.satellites = {1, 2};
    for (net::NodeId n = 3; n < 19; ++n) deployment.compute.push_back(n);
    config.sched_interval = seconds(5);
  }

  sched::Job make_job(sched::JobId id, int nodes, SimTime runtime,
                      sched::JobId depends_on = sched::kNoJob) {
    sched::Job job;
    job.id = id;
    job.user = "u";
    job.name = "app";
    job.nodes = nodes;
    job.cores = nodes * 12;
    job.actual_runtime = runtime;
    job.user_estimate = runtime * 2;
    job.depends_on = depends_on;
    return job;
  }
};

TEST_F(AdminFixture, DrainedNodesAreNotAllocated) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  // Drain all but 4 compute nodes; a 5-node job must wait, a 4-node runs.
  for (std::size_t i = 4; i < deployment.compute.size(); ++i)
    manager.drain_node(deployment.compute[i]);
  EXPECT_EQ(manager.nodes().drained().count(), deployment.compute.size() - 4);
  engine.schedule_at(seconds(1), [&] {
    manager.submit(make_job(1, 5, seconds(20)));
    manager.submit(make_job(2, 4, seconds(20)));
  });
  engine.run_until(minutes(5));
  EXPECT_EQ(manager.pool().get(2).state, sched::JobState::Completed);
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Pending);
  // Resuming capacity lets the waiting job run.
  for (std::size_t i = 4; i < deployment.compute.size(); ++i)
    manager.resume_node(deployment.compute[i]);
  engine.run_until(minutes(10));
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
}

TEST_F(AdminFixture, DependencyHoldsUntilParentCompletes) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  engine.schedule_at(seconds(1), [&] {
    manager.submit(make_job(1, 2, seconds(60)));
    manager.submit(make_job(2, 2, seconds(10), /*depends_on=*/1));
    manager.submit(make_job(3, 2, seconds(10)));  // independent
  });
  engine.run_until(seconds(40));
  // Parent still running: dependent held, independent done or running.
  EXPECT_EQ(manager.pool().get(2).state, sched::JobState::Pending);
  EXPECT_NE(manager.pool().get(3).state, sched::JobState::Pending);
  engine.run_until(minutes(10));
  const sched::Job& child = manager.pool().get(2);
  EXPECT_EQ(child.state, sched::JobState::Completed);
  EXPECT_GE(child.start_time, manager.pool().get(1).end_time);
}

TEST_F(AdminFixture, FailedDependencyCancelsChild) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment, config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(2));
  engine.schedule_at(seconds(1), [&] {
    auto parent = make_job(1, 2, hours(3));     // will hit its limit
    parent.user_estimate = seconds(30);
    manager.submit(std::move(parent));
    manager.submit(make_job(2, 2, seconds(10), /*depends_on=*/1));
  });
  engine.run_until(hours(1));
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::TimedOut);
  EXPECT_EQ(manager.pool().get(2).state, sched::JobState::Cancelled);
  // The cancellation reached the accounting database too.
  JobFilter filter;
  filter.state = sched::JobState::Cancelled;
  EXPECT_EQ(manager.accounting_db().query(filter).size(), 1u);
}

TEST_F(AdminFixture, AccountingDatabaseRecordsCompletions) {
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  engine.schedule_at(seconds(1), [&] {
    manager.submit(make_job(1, 4, seconds(30)));
    manager.submit(make_job(2, 4, seconds(30)));
  });
  engine.run_until(hours(1));
  EXPECT_EQ(manager.accounting_db().size(), 2u);
  EXPECT_NEAR(manager.accounting_db().total_node_hours(), 2 * 4 * 30.0 / 3600.0,
              0.01);
}

TEST_F(AdminFixture, StaleHealthViewTriggersRequeue) {
  config.enable_pings = false;  // the health view never refreshes
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  // Kill a compute node *after* startup; the RM does not know.
  engine.schedule_at(seconds(1), [&] {
    cluster_model->fail(deployment.compute[15]);
  });
  engine.schedule_at(seconds(2), [&] {
    manager.submit(make_job(1, 16, seconds(10)));  // needs every node
  });
  engine.run_until(hours(1));
  // The first launch hit the dead node and requeued; with one node short
  // the 16-wide job can never run, but the requeue was recorded and the
  // dead node is now believed down.
  EXPECT_GE(manager.launch_requeues(), 1u);
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Pending);
}

}  // namespace
}  // namespace eslurm::rm
