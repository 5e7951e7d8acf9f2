// Advance reservations: named [start, end) windows that set aside a node
// count for an allowed population (accounts/users/QoS classes), as in
// Slurm's reservation.c.  The scheduler consults the calendar before
// every start decision: a job outside the allowed population may only
// start if, for every instant its kill-limit window overlaps a
// reservation, the machine keeps `nodes` spare -- reserved capacity is
// never backfilled across.
//
// The simulator schedules node *counts* (allocations carry no placement
// meaning for policy), so a reservation carves capacity, not named
// hosts; that matches how backfill planning treats reservations anyway.
#pragma once

#include <string>
#include <vector>

#include "sched/job.hpp"

namespace eslurm::sched::policy {

struct Reservation {
  std::string name;
  SimTime start = 0;
  SimTime end = 0;  ///< exclusive
  int nodes = 0;    ///< capacity set aside while active
  /// Allowed population; all three empty means nobody (a maintenance
  /// window).  A job qualifies by account OR user OR QoS class.
  std::vector<std::string> accounts;
  std::vector<std::string> users;
  std::vector<std::string> qos;

  bool active_at(SimTime t) const { return t >= start && t < end; }
  bool overlaps(SimTime t0, SimTime t1) const { return t0 < end && start < t1; }
  bool allows(const Job& job) const;
};

class ReservationCalendar {
 public:
  /// Adds a window; zero/negative capacity or end <= start throws.
  void add(Reservation reservation);

  bool empty() const { return reservations_.size() == 0; }
  std::size_t size() const { return reservations_.size(); }
  const std::vector<Reservation>& all() const { return reservations_; }

  /// Max node count reserved away from `job` at any instant of
  /// [t0, t1): the capacity the scheduler must keep spare for a start
  /// decision whose kill-limit window is [t0, t1).  Reservations that
  /// allow the job do not carve against it.
  int carve_out(const Job& job, SimTime t0, SimTime t1) const;

 private:
  std::vector<Reservation> reservations_;
};

}  // namespace eslurm::sched::policy
