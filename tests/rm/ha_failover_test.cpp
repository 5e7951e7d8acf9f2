// End-to-end HA failover through the core::Experiment facade: a chaos
// master-kill mid-workload, standby promotion off the replicated
// snapshot + WAL tail, satellite re-registration, and the two headline
// invariants -- zero duplicate launches, zero committed jobs lost.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "ledger_audit.hpp"
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

std::vector<sched::Job> steady_stream(int count, int nodes) {
  std::vector<sched::Job> jobs;
  for (int i = 0; i < count; ++i)
    jobs.push_back(make_job(1 + i, nodes, seconds(60), minutes(1 + i)));
  return jobs;
}

ExperimentConfig ha_config() {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 64;
  config.satellite_count = 2;
  config.horizon = hours(1);
  config.link.jitter_frac = 0.0;
  config.rm_config.ha.enabled = true;
  return config;
}

/// Zero committed jobs lost: every submission the (dead) master acked
/// must exist in the survivor's pool and have reached a terminal state.
void expect_no_acked_job_lost(Experiment& experiment) {
  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  ASSERT_NE(rm->ha(), nullptr);
  for (const sched::JobId id : rm->ha()->acked_jobs()) {
    ASSERT_TRUE(experiment.manager().pool().contains(id)) << "job " << id;
    EXPECT_TRUE(experiment.manager().pool().get(id).finished())
        << "acked job " << id << " never reached a terminal state";
  }
}

TEST(HaFailover, StandbyPromotionRecoversEveryCommittedJob) {
  ExperimentConfig config = ha_config();
  // Kill the master mid-workload: jobs running, jobs pending, more
  // submissions arriving while the standby takes over.
  config.chaos.master_kill_s = 605.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace(steady_stream(20, 32));
  experiment.run();

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  auto* ha = rm->ha();
  ASSERT_NE(ha, nullptr);
  EXPECT_EQ(rm->crash_count(), 1u);
  EXPECT_TRUE(rm->master_up());  // the standby runs the cluster now
  EXPECT_EQ(ha->promotions(), 1u);
  EXPECT_EQ(ha->master(), net::NodeId{1});  // first satellite promoted
  // The dead master reboots long after the horizon; no standby yet.
  EXPECT_EQ(ha->standby(), net::kNoNode);

  // The headline invariants.
  EXPECT_EQ(ha->duplicate_launches(), 0u);
  expect_no_acked_job_lost(experiment);
  EXPECT_EQ(experiment.report().jobs_finished, 20u);

  // Takeover was detection + replay, not the 90-minute reboot.
  EXPECT_GT(ha->last_detection(), 0);
  EXPECT_GE(ha->last_takeover(), ha->last_detection());
  EXPECT_LT(experiment.manager().total_downtime(), minutes(2));
  // The surviving non-promoted satellite re-registered with the new
  // master.
  EXPECT_EQ(rm->satellites_reregistered(), 1u);
  // Satellite 0 left the tier to become master; satellite 1 still serves.
  EXPECT_EQ(rm->satellite_state(0), rm::SatelliteState::Down);
  EXPECT_EQ(rm->satellite_state(1), rm::SatelliteState::Running);
}

TEST(HaFailover, FrequentSnapshotsShrinkTheReplayTail) {
  // Same crash, two cadences: with 60s snapshots the replay tail is
  // bounded by one minute of WAL; with snapshots effectively off the
  // whole history since t=0 replays.  Both must recover everything.
  auto run = [](SimTime snapshot_interval) {
    ExperimentConfig config = ha_config();
    config.rm_config.ha.snapshot_interval = snapshot_interval;
    config.chaos.master_kill_s = 605.0;
    auto experiment = std::make_unique<Experiment>(config);
    rm::LedgerAudit audit(experiment->engine(), experiment->manager());
    experiment->submit_trace(steady_stream(20, 32));
    experiment->run();
    auto* ha = experiment->eslurm()->ha();
    EXPECT_EQ(ha->promotions(), 1u);
    EXPECT_EQ(ha->duplicate_launches(), 0u);
    expect_no_acked_job_lost(*experiment);
    EXPECT_EQ(experiment->report().jobs_finished, 20u);
    struct Result {
      std::uint64_t snapshots;
      std::size_t replayed;
    };
    return Result{ha->snapshots_taken(), ha->last_replay_records()};
  };
  const auto frequent = run(seconds(60));
  const auto never = run(hours(10));
  EXPECT_GT(frequent.snapshots, 5u);
  EXPECT_EQ(never.snapshots, 0u);
  EXPECT_LT(frequent.replayed, never.replayed);
}

TEST(HaFailover, PartitionTriggersFalseAlarmNotPromotion) {
  // A master<->satellite-tier cut starves the standby's probes long
  // enough to declare death; when the partition heals, the would-be
  // promotion must notice the master is alive and stand down.
  ExperimentConfig config = ha_config();
  config.chaos.partition_start_s = 300.0;
  config.chaos.partition_duration_s = 60.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace(steady_stream(10, 32));
  experiment.run();

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  auto* ha = rm->ha();
  ASSERT_NE(ha, nullptr);
  EXPECT_EQ(rm->crash_count(), 0u);
  EXPECT_GE(ha->false_alarms(), 1u);
  EXPECT_EQ(ha->promotions(), 0u);
  EXPECT_EQ(ha->master(), net::NodeId{0});  // nobody usurped the master
  EXPECT_EQ(ha->duplicate_launches(), 0u);
  EXPECT_EQ(experiment.report().jobs_finished, 10u);
}

TEST(HaFailover, DeadStandbyMeansNoPromotion) {
  // Double fault: the standby is already down when the master dies.
  // Promotion must not install a dead node as master; the cluster waits
  // for the original master's reboot instead (beyond this horizon).
  ExperimentConfig config = ha_config();
  config.chaos.master_kill_s = 605.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.engine().schedule_at(seconds(500),
                                  [&] { experiment.cluster().fail(1); });
  experiment.submit_trace(steady_stream(5, 32));
  experiment.run();

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->crash_count(), 1u);
  EXPECT_EQ(rm->ha()->promotions(), 0u);
  EXPECT_FALSE(rm->master_up());  // down until the 90-minute reboot
  EXPECT_EQ(rm->ha()->duplicate_launches(), 0u);
}

TEST(HaFailover, HaOffKeepsLegacyCrashBehaviour) {
  // Control arm: without HA the same kill is a plain master crash --
  // no WAL, no promotion machinery, recovery waits for the reboot.
  ExperimentConfig config = ha_config();
  config.rm_config.ha.enabled = false;
  config.chaos.master_kill_s = 305.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace(steady_stream(10, 32));
  experiment.run();

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->ha(), nullptr);
  EXPECT_EQ(rm->crash_count(), 1u);
  // The 90-minute reboot lands beyond the 1-hour horizon: the cluster
  // stays headless and the tail of the workload never runs.
  EXPECT_FALSE(rm->master_up());
  EXPECT_LT(experiment.report().jobs_finished, 10u);
}

TEST(HaFailover, PromotionKeepsADrainedNodeOfAHalfLaunchedJobSidelined) {
  // A node is drained while its job's launch broadcast is in flight, and
  // the master dies before the launch commits.  Promotion reclaims the
  // allocation; the drained node must stay out of the free list.
  ExperimentConfig config = ha_config();
  config.horizon = minutes(10);
  // Nothing commits before the crash, so the promoted master drops the
  // half-launched job instead of relaunching it over the same nodes.
  config.rm_config.ha.group_commit_interval = minutes(5);
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace({make_job(1, 4, minutes(5), seconds(40))});
  net::NodeId drained_node = net::kNoNode;
  // The job starts at the t=60 scheduler tick; 1 ms later its launch is
  // still fanning out through the satellite tier.
  experiment.engine().schedule_at(seconds(60) + milliseconds(1), [&] {
    auto& manager = experiment.manager();
    ASSERT_EQ(manager.pool().get(1).state, sched::JobState::Starting);
    drained_node = manager.nodes().nodes(1).front();
    manager.drain_node(drained_node);
    manager.inject_master_crash();
  });
  experiment.run();

  ASSERT_NE(drained_node, net::kNoNode);
  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->ha()->promotions(), 1u);
  EXPECT_EQ(experiment.manager().pool().get(1).state, sched::JobState::Cancelled);
  EXPECT_TRUE(experiment.manager().nodes().drained().test(drained_node));
  EXPECT_EQ(experiment.manager().free_nodes(),
            experiment.manager().total_compute_nodes() - 1);
  EXPECT_TRUE(experiment.manager().nodes().check().empty());
}

}  // namespace
}  // namespace eslurm::core
