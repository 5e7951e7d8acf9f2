// End-to-end job fault tolerance through the core::Experiment facade:
// node-death kills requeue under the retry budget, an exhausted budget
// turns terminal Failed, checkpoints bound the lost work, proactive
// drain migrates jobs off predicted-failing nodes, failure-aware
// placement steers new work away from risky nodes, and the durable HA
// state preserves retry counts across a master crash.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "ledger_audit.hpp"
#include "rm/eslurm_rm.hpp"
#include "rm/ha_master.hpp"

namespace eslurm::core {
namespace {

sched::Job make_job(sched::JobId id, int nodes, SimTime runtime,
                    SimTime submit) {
  sched::Job job;
  job.id = id;
  job.user = "u";
  job.name = "app";
  job.nodes = nodes;
  job.cores = nodes * 12;
  job.submit_time = submit;
  job.actual_runtime = runtime;
  job.user_estimate = runtime * 2;
  return job;
}

ExperimentConfig recovery_config() {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 32;
  config.satellite_count = 2;
  config.horizon = hours(3);
  config.link.jitter_frac = 0.0;
  config.rm_config.recovery.enabled = true;
  return config;
}

/// Fails one node of `id`'s live allocation at `at` (ground-truth kill;
/// the cluster observer delivers the death notice to the RM).
void kill_one_allocated_node(Experiment& experiment, sched::JobId id,
                             SimTime at) {
  experiment.engine().schedule_at(at, [&experiment, id] {
    const auto nodes = experiment.manager().nodes().nodes(id);
    ASSERT_FALSE(nodes.empty()) << "job " << id << " not running at kill time";
    experiment.cluster().fail(nodes.front());
  });
}

TEST(JobRecovery, NodeDeathRequeuesAndJobCompletes) {
  ExperimentConfig config = recovery_config();
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 8, minutes(30), seconds(30))});
  kill_one_allocated_node(experiment, 1, minutes(10));
  experiment.run();

  const sched::Job& job = experiment.manager().pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  EXPECT_EQ(job.retry_count, 1);
  const auto& stats = experiment.manager().recovery_stats();
  EXPECT_EQ(stats.node_failure_kills, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  // The whole interrupted attempt was lost (no checkpointing): ~10 min
  // across 8 nodes.
  EXPECT_GT(stats.lost_node_seconds, 8 * 500.0);
  EXPECT_EQ(experiment.report().jobs_finished, 1u);
  EXPECT_EQ(experiment.report().jobs_failed, 0u);
}

TEST(JobRecovery, ExhaustedRetryBudgetTurnsTerminalFailed) {
  ExperimentConfig config = recovery_config();
  config.rm_config.recovery.max_retries = 0;  // first death is fatal
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 8, minutes(30), seconds(30))});
  kill_one_allocated_node(experiment, 1, minutes(10));
  experiment.run();

  const sched::Job& job = experiment.manager().pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Failed);
  EXPECT_TRUE(job.finished());
  const auto& stats = experiment.manager().recovery_stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  // Terminal failures are accounted, not silently completed: the report
  // counts the job under jobs_failed and keeps it out of jobs_finished
  // (its wait/slowdown would poison the scheduling stats).
  EXPECT_EQ(experiment.report().jobs_failed, 1u);
  EXPECT_EQ(experiment.report().jobs_finished, 0u);
  const auto records = experiment.manager().accounting_db().query({});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].final_state, sched::JobState::Failed);
}

TEST(JobRecovery, CheckpointsBoundTheLostWork) {
  // Same single-kill scenario with and without checkpointing: the
  // checkpointing run banks durable progress and loses strictly less.
  auto lost_node_seconds = [](SimTime checkpoint_interval) {
    ExperimentConfig config = recovery_config();
    config.rm_config.recovery.checkpoint_interval = checkpoint_interval;
    config.rm_config.recovery.checkpoint_cost = seconds(5);
    Experiment experiment(config);
    rm::LedgerAudit audit(experiment.engine(), experiment.manager());
    experiment.submit_trace({make_job(1, 8, minutes(40), seconds(30))});
    kill_one_allocated_node(experiment, 1, minutes(25));
    experiment.run();
    EXPECT_EQ(experiment.manager().pool().get(1).state,
              sched::JobState::Completed);
    EXPECT_EQ(experiment.manager().recovery_stats().jobs_failed, 0u);
    return experiment.manager().recovery_stats().lost_node_seconds;
  };
  const double without = lost_node_seconds(0);
  const double with = lost_node_seconds(minutes(5));
  EXPECT_GT(without, 0.0);
  EXPECT_GT(with, 0.0);       // the tail since the last checkpoint
  EXPECT_LT(with, without / 2.0);  // ~24 min lost vs < ~5 min + stalls
}

TEST(JobRecovery, ProactiveDrainMigratesTheJobCleanly) {
  ExperimentConfig config = recovery_config();
  config.rm_config.recovery.proactive_drain = true;
  config.rm_config.recovery.checkpoint_interval = minutes(5);
  config.rm_config.recovery.checkpoint_cost = seconds(5);
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 8, minutes(30), seconds(30))});
  // Pre-failure alert lands mid-run: the node is predicted to die 10
  // minutes later.  The RM must drain it and migrate the job off with a
  // clean checkpoint -- before the failure, so nothing is lost.
  experiment.engine().schedule_at(minutes(12), [&experiment] {
    const auto nodes = experiment.manager().nodes().nodes(1);
    ASSERT_FALSE(nodes.empty());
    experiment.manager().note_predicted_failure(nodes.front(),
                                                minutes(12) + minutes(10));
  });
  experiment.run();

  const sched::Job& job = experiment.manager().pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  const auto& stats = experiment.manager().recovery_stats();
  EXPECT_EQ(stats.proactive_drains, 1u);
  EXPECT_EQ(stats.proactive_migrations, 1u);
  EXPECT_EQ(stats.node_failure_kills, 0u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  // Clean checkpoint-now migration: nothing lost, one dump paid.
  EXPECT_DOUBLE_EQ(stats.lost_node_seconds, 0.0);
  EXPECT_GT(stats.checkpoint_node_seconds, 0.0);
  // A proactive migration spends no retry budget.
  EXPECT_EQ(job.retry_count, 0);
}

TEST(JobRecovery, FaultAwarePlacementAvoidsPredictedNodes) {
  ExperimentConfig config = recovery_config();
  config.compute_nodes = 4;
  config.rm_config.recovery.fault_aware_placement = true;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  // Mark one compute node as predicted-failing before the RM starts.
  const auto& compute = experiment.manager().deployment().compute;
  const net::NodeId risky = compute[1];
  const cluster::StaticFailurePredictor predictor({risky});
  experiment.manager().set_failure_predictor(&predictor);

  // Three 1-node jobs fit on the three safe nodes; the fourth must fall
  // back to the risky one (risk degrades placement, never capacity).
  experiment.submit_trace({make_job(1, 1, minutes(30), seconds(30)),
                           make_job(2, 1, minutes(30), seconds(30)),
                           make_job(3, 1, minutes(30), seconds(30)),
                           make_job(4, 1, minutes(30), seconds(30))});
  std::vector<net::NodeId> first_three_homes;
  std::vector<net::NodeId> fourth_home;
  experiment.engine().schedule_at(minutes(5), [&] {
    for (sched::JobId id : {1, 2, 3})
      for (const net::NodeId n : experiment.manager().nodes().nodes(id))
        first_three_homes.push_back(n);
    fourth_home = experiment.manager().nodes().nodes(4);
  });
  experiment.run();

  ASSERT_EQ(first_three_homes.size(), 3u);
  EXPECT_EQ(std::count(first_three_homes.begin(), first_three_homes.end(),
                       risky),
            0);
  ASSERT_EQ(fourth_home.size(), 1u);
  EXPECT_EQ(fourth_home.front(), risky);
  for (sched::JobId id : {1, 2, 3, 4})
    EXPECT_EQ(experiment.manager().pool().get(id).state,
              sched::JobState::Completed);
}

TEST(JobRecovery, DrainDuringInflightLaunchCompletesThenParksNode) {
  // Regression: a node drained after the launch broadcast went out but
  // before it landed used to rejoin the free list when the job released
  // its nodes.  The job must complete normally and the node must end
  // idle-drained, outside the allocatable pool.
  ExperimentConfig config = recovery_config();
  config.rm_config.recovery.enabled = false;  // base RM invariant
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 4, minutes(10), seconds(40))});
  net::NodeId drained_node = net::kNoNode;
  // The job starts at the t=60 scheduler tick; 1 ms later the allocation
  // exists but the launch broadcast is still fanning out through the
  // satellite tier (each subtask costs milliseconds of master service).
  experiment.engine().schedule_at(seconds(60) + milliseconds(1), [&] {
    const auto nodes = experiment.manager().nodes().nodes(1);
    ASSERT_FALSE(nodes.empty());
    ASSERT_EQ(experiment.manager().pool().get(1).state,
              sched::JobState::Starting);
    drained_node = nodes.front();
    experiment.manager().drain_node(drained_node);
  });
  experiment.run();

  ASSERT_NE(drained_node, net::kNoNode);
  EXPECT_EQ(experiment.manager().pool().get(1).state,
            sched::JobState::Completed);
  EXPECT_TRUE(experiment.manager().nodes().drained().test(drained_node));
  // The drained node stays out of the pool; everyone else returned.
  EXPECT_EQ(experiment.manager().free_nodes(),
            experiment.manager().total_compute_nodes() - 1);
  // Resume returns it.
  experiment.manager().resume_node(drained_node);
  EXPECT_EQ(experiment.manager().free_nodes(),
            experiment.manager().total_compute_nodes());
}

TEST(JobRecovery, HaFailoverPreservesRetryCountsAndProgress) {
  ExperimentConfig config = recovery_config();
  config.compute_nodes = 64;
  config.rm_config.ha.enabled = true;
  config.rm_config.recovery.checkpoint_interval = minutes(5);
  config.rm_config.recovery.checkpoint_cost = seconds(5);
  config.chaos.master_kill_s = 1200.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 8, minutes(30), seconds(60))});
  // One node death at t=10min: retry 1, ~5 min banked at the kill.
  kill_one_allocated_node(experiment, 1, minutes(10));

  // Probe the *durable* state right after the master crash, before the
  // standby's promotion consumes the replica store: the recovered image
  // must already carry the retry count and checkpoint progress.
  int recovered_retry_count = -1;
  SimTime recovered_progress = -1;
  experiment.engine().schedule_at(from_seconds(1200.0) + milliseconds(100),
                                  [&] {
    auto* rm = experiment.eslurm();
    ASSERT_NE(rm, nullptr);
    ASSERT_NE(rm->ha(), nullptr);
    const ha::StateImage image = rm->ha()->recovered_image(nullptr);
    const auto it = image.jobs.find(1);
    ASSERT_NE(it, image.jobs.end());
    recovered_retry_count = it->second.job.retry_count;
    recovered_progress = it->second.job.checkpoint_progress;
  });
  experiment.run();

  EXPECT_EQ(recovered_retry_count, 1);
  EXPECT_EQ(recovered_progress, minutes(5));

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->ha()->promotions(), 1u);
  EXPECT_TRUE(rm->master_up());
  const sched::Job& job = experiment.manager().pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  EXPECT_EQ(job.retry_count, 1);  // survived the failover unchanged
}

TEST(JobRecovery, SecondNodeDeathInSameAllocationHandledOnce) {
  ExperimentConfig config = recovery_config();
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 8, minutes(30), seconds(30))});
  // Two nodes of the same allocation die in the same instant; the kill
  // must be charged once, not twice.
  experiment.engine().schedule_at(minutes(10), [&experiment] {
    const auto nodes = experiment.manager().nodes().nodes(1);
    ASSERT_GE(nodes.size(), 2u);
    experiment.cluster().fail(nodes[0]);
    experiment.cluster().fail(nodes[1]);
  });
  experiment.run();

  const auto& stats = experiment.manager().recovery_stats();
  EXPECT_EQ(stats.node_failure_kills, 1u);
  EXPECT_EQ(stats.retries, 1u);
  const sched::Job& job = experiment.manager().pool().get(1);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  EXPECT_EQ(job.retry_count, 1);
}

}  // namespace
}  // namespace eslurm::core
