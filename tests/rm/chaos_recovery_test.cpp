// End-to-end robustness of the RM control plane under network chaos,
// driven through the core::Experiment facade (the same wiring esim and
// the benches use): ambient loss is absorbed by the reliable transport
// with no duplicate task processing, and a timed master<->satellite
// partition degrades the satellites to FAULT but heals back to RUNNING.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "ledger_audit.hpp"

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

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 64;
  config.satellite_count = 2;
  config.horizon = hours(1);
  config.link.jitter_frac = 0.0;
  return config;
}

TEST(ChaosRecovery, AmbientLossAbsorbedWithoutDuplicateProcessing) {
  ExperimentConfig config = base_config();
  config.chaos.drop_prob = 0.05;
  config.chaos.duplicate_prob = 0.02;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace(steady_stream(20, 32));
  experiment.run();

  EXPECT_EQ(experiment.report().jobs_finished, 20u);
  // No node ever died, so the transport must have hidden every drop:
  // no subtask moved, no launch was requeued, no send failed for good.
  EXPECT_EQ(experiment.manager().launch_requeues(), 0u);
  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->subtask_reallocations(), 0u);
  ASSERT_NE(rm->transport(), nullptr);
  EXPECT_EQ(rm->transport()->permanent_failures(), 0u);
  EXPECT_GT(rm->transport()->retransmits(), 0u);
  // Chaos duplicated frames (and lost acks forced re-sends of processed
  // ones); repeat suppression kept task execution exactly-once.
  EXPECT_GT(rm->transport()->duplicates_suppressed(), 0u);
  EXPECT_GT(experiment.chaos()->dropped(), 0u);
  for (std::size_t i = 0; i < config.satellite_count; ++i)
    EXPECT_EQ(rm->satellite_state(i), rm::SatelliteState::Running);
}

TEST(ChaosRecovery, RawSendsLeakTheSameChaosIntoTheScheduler) {
  // Control arm: the identical fault schedule without the transport
  // surfaces as failed contacts the RM has to repair at its own layer.
  ExperimentConfig config = base_config();
  config.chaos.drop_prob = 0.2;
  config.rm_config.use_reliable_transport = false;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  experiment.submit_trace(steady_stream(20, 32));
  experiment.run();

  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->transport(), nullptr);
  // 20% loss on raw sends: relay legs exhaust their 3 in-tree retries,
  // heartbeats and task loads fail, satellites churn through FAULT.
  EXPECT_GT(experiment.manager().launch_requeues() +
                rm->subtask_reallocations() + rm->master_takeovers(),
            0u);
  // RM-layer recovery alone cannot hide this loss rate: the same
  // workload the transported arm finishes 20/20 degrades here.
  EXPECT_LT(experiment.report().jobs_finished, 20u);
}

TEST(ChaosRecovery, PartitionFaultsSatellitesThenHeals) {
  ExperimentConfig config = base_config();
  config.chaos.partition_start_s = 300.0;
  config.chaos.partition_duration_s = 120.0;
  Experiment experiment(config);
  rm::LedgerAudit audit(experiment.engine(), experiment.manager());
  // Jobs on both sides of the partition window keep the control plane
  // under load while it is cut.
  experiment.submit_trace(steady_stream(10, 32));

  bool saw_fault = false;
  experiment.engine().schedule_at(seconds(395), [&] {
    auto* rm = experiment.eslurm();
    for (std::size_t i = 0; i < config.satellite_count; ++i)
      saw_fault |= rm->satellite_state(i) == rm::SatelliteState::Fault;
  });
  experiment.run();

  // Heartbeats crossing the cut failed (even through the transport: the
  // partition outlives the full retransmit schedule), so at least one
  // satellite was observed in FAULT mid-partition...
  EXPECT_TRUE(saw_fault);
  auto* rm = experiment.eslurm();
  ASSERT_NE(rm, nullptr);
  // ...but the 2-minute cut is far below the 20-minute dwell, so after
  // healing every satellite is back in service and every job finished.
  for (std::size_t i = 0; i < config.satellite_count; ++i)
    EXPECT_EQ(rm->satellite_state(i), rm::SatelliteState::Running);
  EXPECT_EQ(experiment.report().jobs_finished, 10u);
  EXPECT_GT(experiment.chaos()->partitioned(), 0u);
}

}  // namespace
}  // namespace eslurm::core
