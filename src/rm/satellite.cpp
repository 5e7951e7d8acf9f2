#include "rm/satellite.hpp"

namespace eslurm::rm {

const char* satellite_state_name(SatelliteState state) {
  switch (state) {
    case SatelliteState::Unknown: return "UNKNOWN";
    case SatelliteState::Running: return "RUNNING";
    case SatelliteState::Busy: return "BUSY";
    case SatelliteState::Fault: return "FAULT";
    case SatelliteState::Down: return "DOWN";
  }
  return "?";
}

SatelliteState satellite_transition(SatelliteState state, SatelliteEvent event) {
  // DOWN is terminal until an administrator intervenes (Table II).
  if (state == SatelliteState::Down) return SatelliteState::Down;
  if (event == SatelliteEvent::Shutdown) return SatelliteState::Down;

  switch (event) {
    case SatelliteEvent::BtStart:
      // Only RUNNING satellites are assigned tasks; a second task keeps
      // a BUSY satellite busy.
      return serviceable(state) ? SatelliteState::Busy : state;
    case SatelliteEvent::BtSuccess:
      return state == SatelliteState::Busy ? SatelliteState::Running : state;
    case SatelliteEvent::BtFailure:
      return SatelliteState::Fault;
    case SatelliteEvent::HbSuccess:
      // Recovery path: UNKNOWN and FAULT return to service; BUSY stays
      // busy (the heartbeat just confirms it is alive).
      return state == SatelliteState::Busy ? SatelliteState::Busy
                                           : SatelliteState::Running;
    case SatelliteEvent::HbFailure:
      return SatelliteState::Fault;
    case SatelliteEvent::Timeout:
      return state == SatelliteState::Fault ? SatelliteState::Down : state;
    case SatelliteEvent::Shutdown:
      break;  // handled above
  }
  return state;
}

}  // namespace eslurm::rm
