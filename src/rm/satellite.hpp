// Satellite-node state machine (Fig. 2 / Table II of the paper).
//
// Satellites are stateless relay daemons between the ESLURM master and
// the compute nodes.  The master tracks each satellite through this
// five-state machine, driven by broadcast-task outcomes (BT-success /
// BT-failure), heartbeat outcomes (HB-success / HB-failure), explicit
// shutdown, and the FAULT-dwell timeout (>= 20 minutes -> DOWN, which
// requires administrator intervention).
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace eslurm::rm {

enum class SatelliteState : std::uint8_t {
  Unknown,  ///< state not yet established
  Running,  ///< operating as expected; eligible for broadcast tasks
  Busy,     ///< processing one or more broadcast tasks
  Fault,    ///< failed; waiting for recovery or timeout
  Down,     ///< shut down / timed out; needs an administrator
};

enum class SatelliteEvent : std::uint8_t {
  BtStart,    ///< a broadcast task was assigned
  BtSuccess,  ///< broadcast task completed
  BtFailure,  ///< broadcast task failed
  HbSuccess,  ///< heartbeat answered
  HbFailure,  ///< heartbeat missed
  Shutdown,   ///< administrative shutdown
  Timeout,    ///< FAULT dwell exceeded the limit
};

const char* satellite_state_name(SatelliteState state);

/// RUNNING or BUSY: the satellite takes broadcast tasks and serves reads.
constexpr bool serviceable(SatelliteState state) {
  return state == SatelliteState::Running || state == SatelliteState::Busy;
}

/// Pure transition function of the Fig. 2 state machine.
SatelliteState satellite_transition(SatelliteState state, SatelliteEvent event);

/// Default FAULT-dwell before a satellite is declared DOWN (Table II).
inline constexpr SimTime kSatelliteFaultTimeout = minutes(20);

}  // namespace eslurm::rm
