#include "sched/policy/reservation.hpp"

#include <algorithm>
#include <stdexcept>

namespace eslurm::sched::policy {

bool Reservation::allows(const Job& job) const {
  const auto has = [](const std::vector<std::string>& list, const std::string& value) {
    return !value.empty() &&
           std::find(list.begin(), list.end(), value) != list.end();
  };
  return has(accounts, job.account) || has(users, job.user) || has(qos, job.qos);
}

void ReservationCalendar::add(Reservation reservation) {
  if (reservation.end <= reservation.start)
    throw std::invalid_argument("Reservation: end must be after start");
  if (reservation.nodes <= 0)
    throw std::invalid_argument("Reservation: needs a positive node count");
  reservations_.push_back(std::move(reservation));
}

int ReservationCalendar::carve_out(const Job& job, SimTime t0, SimTime t1) const {
  // Max concurrent reserved capacity over the window.  Concurrency can
  // only change at window starts, so evaluating the stack at t0 and at
  // every overlapping reservation's start covers all maxima.
  int best = 0;
  const auto stacked_at = [&](SimTime t) {
    int sum = 0;
    for (const Reservation& r : reservations_)
      if (r.active_at(t) && !r.allows(job)) sum += r.nodes;
    return sum;
  };
  best = stacked_at(t0);
  for (const Reservation& r : reservations_) {
    if (r.allows(job) || !r.overlaps(t0, t1)) continue;
    if (r.start >= t0) best = std::max(best, stacked_at(r.start));
  }
  return best;
}

}  // namespace eslurm::sched::policy
