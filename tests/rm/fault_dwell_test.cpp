// FAULT-dwell boundary tests of the Fig. 2 satellite state machine: a
// satellite that has been in FAULT for exactly kSatelliteFaultTimeout is
// declared DOWN at the next heartbeat tick, one tick earlier it is not,
// and an HB-success inside the dwell restarts the clock from zero.
//
// Raw sends (no reliable transport) with a 60 s contact timeout make the
// timeline exact: the heartbeat task ticks every minute, a ping to a dead
// satellite fails precisely one timeout later, and no retransmit jitter
// blurs when fault_since is stamped.
#include <gtest/gtest.h>

#include <optional>

#include "ledger_audit.hpp"
#include "rm/eslurm_rm.hpp"

namespace eslurm::rm {
namespace {

struct DwellFixture : ::testing::Test {
  static constexpr std::size_t kCompute = 8;
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
    deployment.master = 0;
    for (std::size_t i = 0; i < kSatellites; ++i)
      deployment.satellites.push_back(static_cast<NodeId>(1 + i));
    for (std::size_t i = 0; i < kCompute; ++i)
      deployment.compute.push_back(static_cast<NodeId>(1 + kSatellites + i));
    config.use_reliable_transport = false;
    config.bcast.timeout = seconds(60);  // ping failure lands on a tick
  }
};

// Timeline (heartbeats tick every minute, satellite 0 dead from t=0):
//   t=60   first ping sent, times out at t=120 -> FAULT, fault_since=120
//   t=1260 dwell = 1140 s < 20 min            -> still FAULT
//   t=1320 dwell = 1200 s = kSatelliteFaultTimeout exactly -> DOWN
TEST_F(DwellFixture, ExactDwellBoundaryMarksDown) {
  ASSERT_EQ(kSatelliteFaultTimeout, minutes(20));
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment,
                   config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  cluster_model->fail(deployment.satellites[0]);

  engine.run_until(seconds(130));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Fault);

  // One tick before the boundary: 1260 - 120 = 1140 s in FAULT.
  engine.run_until(seconds(1310));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Fault);

  // The boundary tick: 1320 - 120 = 1200 s, >= fires on equality.
  engine.run_until(seconds(1330));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Down);

  // The healthy satellite was never touched.
  EXPECT_NE(manager.satellite_state(1), SatelliteState::Down);
}

// An HB-success mid-dwell returns the satellite to RUNNING and resets
// fault_since: after a second failure the DOWN declaration counts 20
// minutes from the *second* FAULT entry, not the first.
TEST_F(DwellFixture, RecoveryInsideDwellRestartsTheClock) {
  EslurmRm manager(engine, *net, *cluster_model, eslurm_profile(), deployment,
                   config);
  LedgerAudit audit(engine, manager);
  manager.start(hours(1));
  cluster_model->fail(deployment.satellites[0]);  // FAULT at t=120

  engine.schedule_at(seconds(550), [&] {
    cluster_model->restore(deployment.satellites[0]);
  });
  engine.run_until(seconds(610));  // tick 600 pings the restored node
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Running);

  engine.schedule_at(seconds(650), [&] {
    cluster_model->fail(deployment.satellites[0]);
  });
  // Second FAULT entry: ping at 660 fails at 720 -> fault_since=720.
  engine.run_until(seconds(730));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Fault);

  // 1320 was the DOWN boundary of the *first* fault (120 + 1200); a
  // stale fault_since would fire here.
  engine.run_until(seconds(1330));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Fault);

  // The real boundary: 720 + 1200 = 1920.
  engine.run_until(seconds(1910));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Fault);
  engine.run_until(seconds(1930));
  EXPECT_EQ(manager.satellite_state(0), SatelliteState::Down);
}

}  // namespace
}  // namespace eslurm::rm
