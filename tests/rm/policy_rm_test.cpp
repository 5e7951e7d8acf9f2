// End-to-end tests of the policy suite through the RM: the release path
// feeding fair-share, preemption with requeue (conservation included),
// reservation windows never backfilled across, and admission limits
// serializing a capped user's jobs.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "ledger_audit.hpp"
#include "rm/centralized_rm.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::rm {
namespace {

/// Enabled before the engine that carries it is built.
struct EnabledTelemetry : telemetry::Telemetry {
  EnabledTelemetry() { enable(); }
};

struct PolicyRmFixture : ::testing::Test {
  static constexpr std::size_t kCompute = 64;
  EnabledTelemetry telemetry;
  sim::Engine engine{&telemetry};
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster_model;
  RmDeployment deployment;
  RmRuntimeConfig config;

  void SetUp() override {
    net::LinkModel link;
    link.jitter_frac = 0.0;
    const std::size_t total = 1 + kCompute;
    net.emplace(engine, total, link, Rng(1));
    cluster_model.emplace(engine, total);
    net->set_liveness(cluster_model->liveness());
    deployment.master = 0;
    for (std::size_t i = 0; i < kCompute; ++i)
      deployment.compute.push_back(static_cast<NodeId>(1 + i));
    config.sched_interval = seconds(5);
    config.sample_interval = seconds(30);
  }

  sched::Job make_job(sched::JobId id, const std::string& user, int nodes,
                      SimTime runtime, SimTime submit = 0,
                      const std::string& qos = "") {
    sched::Job job;
    job.id = id;
    job.user = user;
    job.name = "app";
    job.nodes = nodes;
    job.cores = nodes * 12;
    job.submit_time = submit;
    job.actual_runtime = runtime;
    job.user_estimate = runtime * 2;
    job.qos = qos;
    return job;
  }
};

TEST_F(PolicyRmFixture, ReleasePathFeedsFairshareLedger) {
  // Regression for the priority-scheduler plumbing: a completed job's
  // usage must reach the fair-share tracker via the RM's release path
  // (scheduler_.on_job_released), not only in scheduler unit tests.
  config.scheduler = "priority";
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(minutes(20));
  engine.schedule_at(seconds(1),
                     [&] { manager.submit(make_job(1, "heavy", 16, seconds(120))); });
  engine.run_until(minutes(20));
  ASSERT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
  sched::FairshareTracker& fairshare = manager.scheduler().fairshare();
  // 16 nodes x 120 s, modestly decayed since release.
  EXPECT_NEAR(fairshare.raw_usage("heavy", engine.now()), 16.0 * 120.0,
              16.0 * 120.0 * 0.01);
  EXPECT_DOUBLE_EQ(fairshare.raw_usage("idle", engine.now()), 0.0);
}

TEST_F(PolicyRmFixture, PreemptionRequeuesVictimAndLosesNoJob) {
  config.scheduler = "policy";
  config.policy.enabled = true;
  config.policy.enable_preemption = true;
  config.policy.preempt_mode = sched::policy::PreemptMode::Requeue;
  config.policy.preempt_wait = seconds(30);
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(3));
  engine.schedule_at(seconds(1), [&] {
    // Two low scavengers fill the machine for an hour each...
    manager.submit(make_job(1, "scav", 32, hours(1), 0, "low"));
    manager.submit(make_job(2, "scav", 32, hours(1), 0, "low"));
  });
  // ...then urgent work arrives and must evict one of them.
  engine.schedule_at(minutes(1),
                     [&] { manager.submit(make_job(3, "vip", 32, minutes(5), 0, "high")); });
  engine.run_until(hours(3));

  EXPECT_GE(manager.preempt_requeues(), 1u);
  EXPECT_EQ(manager.preempt_cancels(), 0u);
  const sched::Job& vip = manager.pool().get(3);
  EXPECT_EQ(vip.state, sched::JobState::Completed);
  // The high job did not wait the scavengers out: grace is 15 s, so it
  // started within a few scheduling cycles of its preempt_wait expiring.
  EXPECT_LT(vip.start_time, minutes(5));
  // Conservation: the requeued victim reran from scratch and completed.
  int preempted = 0;
  for (sched::JobId id = 1; id <= 2; ++id) {
    const sched::Job& job = manager.pool().get(id);
    EXPECT_EQ(job.state, sched::JobState::Completed) << "job " << id;
    preempted += job.preempt_count;
  }
  EXPECT_GE(preempted, 1);
  EXPECT_EQ(manager.pool().finished().size(), 3u);
  ASSERT_NE(manager.policy(), nullptr);
  EXPECT_GE(manager.policy()->preempt_orders_issued(), 1u);
}

TEST_F(PolicyRmFixture, CancelModeKillsVictimOutright) {
  config.scheduler = "policy";
  config.policy.enabled = true;
  config.policy.enable_preemption = true;
  config.policy.preempt_mode = sched::policy::PreemptMode::Cancel;
  config.policy.preempt_wait = seconds(30);
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(2));
  engine.schedule_at(seconds(1), [&] {
    manager.submit(make_job(1, "scav", 64, hours(1), 0, "low"));
  });
  engine.schedule_at(minutes(1),
                     [&] { manager.submit(make_job(2, "vip", 64, minutes(5), 0, "high")); });
  engine.run_until(hours(2));
  EXPECT_GE(manager.preempt_cancels(), 1u);
  EXPECT_EQ(manager.preempt_requeues(), 0u);
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Cancelled);
  EXPECT_EQ(manager.pool().get(2).state, sched::JobState::Completed);
}

TEST_F(PolicyRmFixture, NodeDeathDuringRequeueTeardownIsHandledOnce) {
  // A node of a preempted job dies while the job's termination broadcast
  // is in flight.  The preemption teardown owns the job: the death notice
  // finds its run timer disarmed, so no node-death kill, retry or second
  // termination broadcast follows.
  config.scheduler = "policy";
  config.policy.enabled = true;
  config.policy.enable_preemption = true;
  config.policy.preempt_mode = sched::policy::PreemptMode::Requeue;
  config.policy.preempt_wait = seconds(30);
  config.recovery.enabled = true;
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(3));
  engine.schedule_at(seconds(1),
                     [&] { manager.submit(make_job(1, "scav", 48, hours(1), 0, "low")); });
  engine.schedule_at(minutes(1),
                     [&] { manager.submit(make_job(2, "vip", 32, minutes(5), 0, "high")); });
  // Scheduling cycles and the grace period are whole seconds, so a poll
  // each second runs in the same instant as the preemption, right after
  // it has started the termination broadcast.
  NodeId killed = net::kNoNode;
  std::function<void()> poll = [&] {
    if (manager.preempt_requeues() == 1 &&
        manager.pool().get(1).state == sched::JobState::Running) {
      killed = manager.nodes().nodes(1).front();
      cluster_model->fail(killed);
      return;
    }
    if (manager.preempt_requeues() == 0) engine.schedule_after(seconds(1), poll);
  };
  engine.schedule_at(minutes(1), poll);
  engine.run_until(hours(3));

  ASSERT_NE(killed, net::kNoNode) << "no poll saw the termination broadcast in flight";
  EXPECT_EQ(manager.preempt_requeues(), 1u);
  EXPECT_EQ(manager.pool().get(1).preempt_count, 1);
  const auto& stats = manager.recovery_stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.node_failure_kills, 0u);
  // One termination broadcast each: the preemption, the vip's end and the
  // rerun's end on the 63 surviving nodes.
  EXPECT_EQ(manager.termination_broadcast_seconds().count(), 3u);
  // The telemetry histogram observes every termination broadcast as well,
  // whatever its outcome.
  EXPECT_EQ(telemetry.metrics
                .histogram("rm.term_broadcast_seconds", {{"rm", slurm_profile().name}})
                .count(),
            3u);
  EXPECT_EQ(manager.pool().get(1).state, sched::JobState::Completed);
  EXPECT_EQ(manager.pool().get(2).state, sched::JobState::Completed);
  EXPECT_TRUE(manager.nodes().believed_down().test(killed));
}

TEST_F(PolicyRmFixture, ReservedWindowIsNeverBackfilledAcross) {
  config.scheduler = "policy";
  config.policy.enabled = true;
  sched::policy::Reservation window;
  window.name = "urgent";
  window.start = minutes(2);
  window.end = minutes(12);
  window.nodes = 32;
  window.qos = {"high"};
  config.policy.reservations.add(window);
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(2));
  engine.schedule_at(seconds(1), [&] {
    // 48 > 64 - 32 and the kill window crosses the reservation: must wait
    // until the window has passed even though the machine sits idle.
    manager.submit(make_job(1, "bulk", 48, minutes(30)));
  });
  // The allowed population uses the reserved capacity mid-window.
  engine.schedule_at(minutes(3), [&] {
    manager.submit(make_job(2, "oncall", 32, minutes(2), 0, "high"));
  });
  engine.run_until(hours(2));

  const sched::Job& bulk = manager.pool().get(1);
  EXPECT_EQ(bulk.state, sched::JobState::Completed);
  EXPECT_GE(bulk.start_time, minutes(12));  // held across the whole window
  const sched::Job& oncall = manager.pool().get(2);
  EXPECT_EQ(oncall.state, sched::JobState::Completed);
  EXPECT_LT(oncall.start_time, minutes(12));  // sailed into its window
  EXPECT_EQ(manager.reservation_intrusions(), 0u);
  ASSERT_NE(manager.policy(), nullptr);
  EXPECT_GE(manager.policy()->reservation_carve_skips(), 1u);
}

TEST_F(PolicyRmFixture, UserJobCapSerializesRuns) {
  config.scheduler = "policy";
  config.policy.enabled = true;
  config.policy.accounts.set_user("capped", "", 1.0,
                                  sched::policy::UserLimits{.max_running_jobs = 1});
  CentralizedRm manager(engine, *net, *cluster_model, slurm_profile(), deployment,
                        config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  engine.schedule_at(seconds(1), [&] {
    for (sched::JobId id = 1; id <= 3; ++id)
      manager.submit(make_job(id, "capped", 8, minutes(2)));
  });
  engine.run_until(hours(1));

  // All complete, but never two at once: each run starts after the
  // previous one ended (64 free nodes would otherwise fit all three).
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (sched::JobId id = 1; id <= 3; ++id) {
    const sched::Job& job = manager.pool().get(id);
    ASSERT_EQ(job.state, sched::JobState::Completed) << "job " << id;
    spans.emplace_back(job.start_time, job.end_time);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].first, spans[i - 1].second);
  ASSERT_NE(manager.policy(), nullptr);
  EXPECT_GE(manager.policy()->limit_holds(), 2u);
  EXPECT_EQ(manager.policy()->limit_violations(), 0u);
}

}  // namespace
}  // namespace eslurm::rm
