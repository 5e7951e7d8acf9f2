// Tests for the satellite state machine (Fig. 2 / Table II) and the
// Eq. 1 satellite-allocation formula.
#include <gtest/gtest.h>

#include "rm/eslurm_rm.hpp"
#include "rm/satellite.hpp"

namespace eslurm::rm {
namespace {

TEST(SatelliteMachine, HappyPathTaskCycle) {
  SatelliteState s = SatelliteState::Running;
  s = satellite_transition(s, SatelliteEvent::BtStart);
  EXPECT_EQ(s, SatelliteState::Busy);
  s = satellite_transition(s, SatelliteEvent::BtSuccess);
  EXPECT_EQ(s, SatelliteState::Running);
}

TEST(SatelliteMachine, BroadcastFailureFaults) {
  EXPECT_EQ(satellite_transition(SatelliteState::Busy, SatelliteEvent::BtFailure),
            SatelliteState::Fault);
  EXPECT_EQ(satellite_transition(SatelliteState::Running, SatelliteEvent::BtFailure),
            SatelliteState::Fault);
}

TEST(SatelliteMachine, HeartbeatRecoversFault) {
  EXPECT_EQ(satellite_transition(SatelliteState::Fault, SatelliteEvent::HbSuccess),
            SatelliteState::Running);
  EXPECT_EQ(satellite_transition(SatelliteState::Unknown, SatelliteEvent::HbSuccess),
            SatelliteState::Running);
}

TEST(SatelliteMachine, HeartbeatFailureFaults) {
  for (const SatelliteState s : {SatelliteState::Unknown, SatelliteState::Running,
                                 SatelliteState::Busy, SatelliteState::Fault}) {
    EXPECT_EQ(satellite_transition(s, SatelliteEvent::HbFailure), SatelliteState::Fault);
  }
}

TEST(SatelliteMachine, FaultTimeoutGoesDown) {
  EXPECT_EQ(satellite_transition(SatelliteState::Fault, SatelliteEvent::Timeout),
            SatelliteState::Down);
  // Timeout only applies to FAULT.
  EXPECT_EQ(satellite_transition(SatelliteState::Running, SatelliteEvent::Timeout),
            SatelliteState::Running);
}

TEST(SatelliteMachine, DownIsTerminal) {
  for (const SatelliteEvent e :
       {SatelliteEvent::BtStart, SatelliteEvent::BtSuccess, SatelliteEvent::BtFailure,
        SatelliteEvent::HbSuccess, SatelliteEvent::HbFailure, SatelliteEvent::Timeout}) {
    EXPECT_EQ(satellite_transition(SatelliteState::Down, e), SatelliteState::Down);
  }
}

TEST(SatelliteMachine, ShutdownFromAnywhere) {
  for (const SatelliteState s : {SatelliteState::Unknown, SatelliteState::Running,
                                 SatelliteState::Busy, SatelliteState::Fault}) {
    EXPECT_EQ(satellite_transition(s, SatelliteEvent::Shutdown), SatelliteState::Down);
  }
}

TEST(SatelliteMachine, BusyStaysBusyOnHeartbeat) {
  EXPECT_EQ(satellite_transition(SatelliteState::Busy, SatelliteEvent::HbSuccess),
            SatelliteState::Busy);
}

TEST(SatelliteMachine, NamesResolve) {
  EXPECT_STREQ(satellite_state_name(SatelliteState::Fault), "FAULT");
}

// Eq. 1 of the paper: N = 1 for s <= w; s/w in between; m at saturation.
TEST(SatellitesFor, FollowsEquationOne) {
  // s <= w
  EXPECT_EQ(EslurmRm::satellites_for(10, 50, 5), 1u);
  EXPECT_EQ(EslurmRm::satellites_for(50, 50, 5), 1u);
  // w < s < m*w
  EXPECT_EQ(EslurmRm::satellites_for(100, 50, 5), 2u);
  EXPECT_EQ(EslurmRm::satellites_for(120, 50, 5), 3u);  // ceil
  // s >= m*w
  EXPECT_EQ(EslurmRm::satellites_for(250, 50, 5), 5u);
  EXPECT_EQ(EslurmRm::satellites_for(10000, 50, 5), 5u);
}

TEST(SatellitesFor, EdgeCases) {
  EXPECT_EQ(EslurmRm::satellites_for(100, 50, 0), 0u);
  EXPECT_EQ(EslurmRm::satellites_for(0, 50, 3), 1u);
  EXPECT_EQ(EslurmRm::satellites_for(100, 1, 2), 2u);  // tiny width saturates
}

class SatelliteTransitionSweep
    : public ::testing::TestWithParam<std::tuple<SatelliteState, SatelliteEvent>> {};

// Property: every transition lands in a valid state, and only SHUTDOWN,
// TIMEOUT, BT-failure or HB-failure can move a satellite out of service.
TEST_P(SatelliteTransitionSweep, TotalAndSafe) {
  const auto [state, event] = GetParam();
  const SatelliteState next = satellite_transition(state, event);
  EXPECT_NE(satellite_state_name(next), std::string("?"));
  const bool in_service =
      state == SatelliteState::Running || state == SatelliteState::Busy;
  const bool out_of_service =
      next == SatelliteState::Fault || next == SatelliteState::Down;
  const bool failure_event =
      event == SatelliteEvent::BtFailure || event == SatelliteEvent::HbFailure ||
      event == SatelliteEvent::Shutdown || event == SatelliteEvent::Timeout;
  if (in_service && out_of_service) {
    EXPECT_TRUE(failure_event);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SatelliteTransitionSweep,
    ::testing::Combine(
        ::testing::Values(SatelliteState::Unknown, SatelliteState::Running,
                          SatelliteState::Busy, SatelliteState::Fault,
                          SatelliteState::Down),
        ::testing::Values(SatelliteEvent::BtStart, SatelliteEvent::BtSuccess,
                          SatelliteEvent::BtFailure, SatelliteEvent::HbSuccess,
                          SatelliteEvent::HbFailure, SatelliteEvent::Shutdown,
                          SatelliteEvent::Timeout)));

}  // namespace
}  // namespace eslurm::rm
