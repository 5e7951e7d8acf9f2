#include "sched/scheduler.hpp"

#include <algorithm>
#include <functional>

#include "telemetry/telemetry.hpp"

namespace eslurm::sched {

namespace {

/// Fair-share usage decays with a one-week half-life (Slurm's default
/// PriorityDecayHalfLife).
constexpr SimTime kFairshareHalfLife = days(7);

SimTime estimate_of(const Job& job) {
  return job.estimate_used > 0 ? job.estimate_used : job.user_estimate;
}

}  // namespace

SimTime expected_end(const Job& job, SimTime now) {
  const SimTime est = estimate_of(job);
  const SimTime base = job.start_time >= 0 ? job.start_time : now;
  const SimTime nominal = base + est;
  if (nominal > now) return nominal;
  // The job overran its estimate.  Do not assume it ends "right now" --
  // that keeps reservations perpetually optimistic and lets backfill
  // starve the queue head (the classic underestimation pathology;
  // Tsafrir et al. correct violated predictions by enlarging them).
  const SimTime bump = std::max<SimTime>(minutes(10), est / 5);
  return now + bump;
}

bool dependency_ready(const JobPool& pool, const Job& job, bool* failed) {
  if (failed) *failed = false;
  if (job.depends_on == kNoJob || !pool.contains(job.depends_on)) return true;
  const Job& dependency = pool.get(job.depends_on);
  if (dependency.state == JobState::Completed) return true;
  if (dependency.state == JobState::TimedOut ||
      dependency.state == JobState::Cancelled) {
    if (failed) *failed = true;
  }
  return false;
}

Scheduler make_scheduler(std::string_view preset, int cluster_nodes,
                         const policy::PolicyConfig& policy,
                         std::size_t planning_depth) {
  using Ordering = Scheduler::Ordering;
  using Backfill = Scheduler::Backfill;
  const auto build = [&](Ordering ordering, Backfill backfill) {
    return Scheduler(ordering, backfill, cluster_nodes, policy.weights, planning_depth);
  };
  if (preset == "fcfs") return build(Ordering::Submit, Backfill::None);
  if (preset == "conservative") return build(Ordering::Submit, Backfill::Conservative);
  if (preset == "priority") return build(Ordering::Multifactor, Backfill::Easy);
  if (preset == "policy") {
    Scheduler scheduler = build(Ordering::FairTree, Backfill::Easy);
    scheduler.policy_ = std::make_unique<policy::PolicyState>(policy);
    return scheduler;
  }
  return Scheduler();
}

Scheduler::Scheduler()
    : Scheduler(Ordering::Submit, Backfill::Easy, 1, PriorityWeights{},
                kConservativePlanningDepth) {}

Scheduler::Scheduler(Ordering ordering, Backfill backfill, int cluster_nodes,
                     const PriorityWeights& weights, std::size_t planning_depth)
    : ordering_(ordering),
      backfill_(backfill),
      planning_depth_(planning_depth),
      calculator_(weights, cluster_nodes,
                  static_cast<double>(cluster_nodes) * to_seconds(kFairshareHalfLife)),
      fairshare_(kFairshareHalfLife) {}

void Scheduler::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (policy_) policy_->telemetry_ = telemetry;
}

double Scheduler::priority_of(const Job& job, SimTime now) const {
  if (ordering_ != Ordering::FairTree) return calculator_.priority(job, now, fairshare_);
  const policy::PolicyConfig& config = policy_->config_;
  return calculator_.priority_from_factors(job, now, policy_->share_factor(job)) +
         config.qos_weight * config.qos.resolve(job).priority_boost;
}

void Scheduler::on_job_released(const Job& job, SimTime now) {
  if (ordering_ == Ordering::Submit) return;
  const SimTime runtime = job.observed_runtime();
  if (runtime <= 0) return;
  if (policy_)
    policy_->charge(job, runtime, now);
  else
    fairshare_.record_usage(job.user,
                            static_cast<double>(job.nodes) * to_seconds(runtime), now);
}

void Scheduler::on_job_preempted(const Job& job, SimTime now) {
  if (ordering_ == Ordering::Submit) return;
  if (job.start_time < 0 || now <= job.start_time) return;
  if (policy_)
    policy_->charge(job, now - job.start_time, now);
  else
    fairshare_.record_usage(
        job.user, static_cast<double>(job.nodes) * to_seconds(now - job.start_time),
        now);
}

std::vector<JobId> Scheduler::schedule(const JobPool& pool, int free_nodes,
                                       SimTime now) {
  if (backfill_ == Backfill::Conservative)
    return conservative_pass(pool, free_nodes, now);
  rank(pool, now);
  return start_and_backfill(pool, free_nodes, now);
}

void Scheduler::rank(const JobPool& pool, SimTime now) {
  ordered_.clear();
  ordered_.reserve(pool.pending().size());
  if (ordering_ == Ordering::Submit) {
    for (const JobId id : pool.pending())
      if (dependency_ready(pool, pool.get(id))) ordered_.push_back(id);
    return;
  }
  if (ordering_ == Ordering::FairTree) policy_->refresh_factors(pool, now);
  ranked_.clear();
  ranked_.reserve(pool.pending().size());
  for (const JobId id : pool.pending()) {
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held
    ranked_.emplace_back(-priority_of(job, now), id);
  }
  // The (-priority, id) keys are unique, so equal priorities keep
  // submission order (ids ascend with time) without a stable sort.
  std::sort(ranked_.begin(), ranked_.end());
  for (const auto& [neg_priority, id] : ranked_) ordered_.push_back(id);
}

void Scheduler::collect_releases(const JobPool& pool, SimTime now) {
  releases_.clear();
  releases_.reserve(pool.active().size());
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    releases_.emplace_back(expected_end(job, now), job.nodes);
  }
}

std::vector<JobId> Scheduler::start_and_backfill(const JobPool& pool, int free_nodes,
                                                 SimTime now) {
  // The policy stages are fixed for the scheduler's lifetime: one pointer
  // test per candidate, no indirect call.
  policy::PolicyState* const policy = policy_.get();
  if (policy) policy->begin_admission(pool);
  const auto blocked = [&](const Job& job) {
    return policy ? policy->carve_blocks(job, free_nodes, now) : job.nodes > free_nodes;
  };

  std::vector<JobId> out;
  std::size_t cursor = 0;

  // Start the head of the ordered queue while it fits.  A limit-held job
  // is skipped outright -- as in Slurm, a held job gets no reservation and
  // never blocks the queue behind it.
  for (; cursor < ordered_.size(); ++cursor) {
    const Job& job = pool.get(ordered_[cursor]);
    if (policy && policy->held_by_limits(job)) continue;
    if (blocked(job)) break;
    free_nodes -= job.nodes;
    if (policy) policy->admit(job);
    out.push_back(job.id);
  }
  if (policy)
    policy->blocked_head_ = cursor < ordered_.size() ? ordered_[cursor] : kNoJob;
  if (backfill_ == Backfill::None || cursor >= ordered_.size() || free_nodes <= 0)
    return out;

  // Shadow reservation for the blocked head: walk active jobs in
  // expected-end order, accumulating released nodes until the head fits.
  // `shadow` is the head's reserved start time; `spare` is what is left
  // over at that moment after the head takes its share.  If running jobs
  // can never free enough nodes the head is unsatisfiable right now
  // (machine too small / draining) and no reservation constrains the
  // backfill.  The walk usually stops after a few releases, so they come
  // off a min-heap in sorted order rather than from a full sort.
  const int head_nodes = pool.get(ordered_[cursor++]).nodes;
  collect_releases(pool, now);
  const auto later = std::greater<>();
  std::make_heap(releases_.begin(), releases_.end(), later);
  SimTime shadow = kTimeNever;
  int spare = 0;
  int avail = free_nodes;
  for (auto heap_end = releases_.end(); heap_end != releases_.begin(); --heap_end) {
    std::pop_heap(releases_.begin(), heap_end, later);
    const auto& [end, nodes] = *(heap_end - 1);
    avail += nodes;
    if (avail >= head_nodes) {
      shadow = end;
      spare = avail - head_nodes;
      break;
    }
  }

  // Backfill: a candidate may start if it fits now AND either ends before
  // the shadow time or only uses nodes spare at the shadow time -- judged
  // by the *runtime estimates*, which is exactly why the quality of
  // runtime estimation drives utilization (Sections V and VII-D).  The
  // policy stages additionally keep it out of reserved windows.
  for (; cursor < ordered_.size() && free_nodes > 0; ++cursor) {
    const Job& job = pool.get(ordered_[cursor]);
    if (job.nodes > free_nodes) continue;
    if (policy && (policy->held_by_limits(job) || blocked(job))) continue;
    const bool ends_before_shadow =
        shadow == kTimeNever || now + estimate_of(job) <= shadow;
    const bool fits_spare = shadow == kTimeNever || job.nodes <= spare;
    if (ends_before_shadow || fits_spare) {
      free_nodes -= job.nodes;
      if (fits_spare && !ends_before_shadow) spare -= job.nodes;
      if (policy) policy->admit(job);
      out.push_back(job.id);
      ++backfilled_;
      if (telemetry_) telemetry_->metrics.counter("sched.backfill_decisions").inc();
    }
  }
  return out;
}

std::vector<JobId> Scheduler::conservative_pass(const JobPool& pool, int free_nodes,
                                                SimTime now) {
  // Free-node timeline as a step function: time -> available nodes from
  // that instant on, seeded by the expected ends of active jobs.  No job
  // can be delayed by a later arrival, at the cost of more planning work
  // per cycle.
  collect_releases(pool, now);
  std::sort(releases_.begin(), releases_.end());
  timeline_.clear();
  timeline_.push_back({now, free_nodes});
  int level = free_nodes;
  for (const auto& [end, nodes] : releases_) {
    level += nodes;
    if (timeline_.back().time == end)
      timeline_.back().level = level;  // coalesce simultaneous releases
    else
      timeline_.push_back({end, level});
  }

  // Splits the step function at t, returning the step's index.  t always
  // lies at or after the timeline origin (reservations start >= now).
  const auto ensure_step = [this](SimTime t) {
    const auto pos = std::lower_bound(
        timeline_.begin(), timeline_.end(), t,
        [](const Step& step, SimTime value) { return step.time < value; });
    if (pos != timeline_.end() && pos->time == t)
      return static_cast<std::size_t>(pos - timeline_.begin());
    const int carried = (pos - 1)->level;
    return static_cast<std::size_t>(timeline_.insert(pos, {t, carried}) -
                                    timeline_.begin());
  };

  std::vector<JobId> out;
  std::size_t planned = 0;
  for (const JobId id : pool.pending()) {
    if (++planned > planning_depth_) break;
    const Job& job = pool.get(id);
    if (!dependency_ready(pool, job)) continue;  // held jobs reserve nothing
    const SimTime est = std::max<SimTime>(estimate_of(job), seconds(1));

    // Earliest t where `nodes` are free across [t, t + est).
    SimTime start = now;
    bool placed = false;
    for (std::size_t scan = 0; scan < timeline_.size(); ++scan) {
      start = timeline_[scan].time;
      bool fits = true;
      for (std::size_t window = scan;
           window < timeline_.size() && timeline_[window].time < start + est;
           ++window) {
        if (timeline_[window].level < job.nodes) {
          fits = false;
          break;
        }
      }
      if (fits) {
        placed = true;
        break;
      }
    }
    // Unsatisfiable with the current machine state (too wide, or the
    // timeline is exhausted): no reservation, it cannot constrain others.
    if (!placed) continue;

    // Reserve [start, start + est): split steps at the boundaries, then
    // subtract the job's width inside the window.
    const SimTime end = start + est;
    const std::size_t first = ensure_step(start);
    ensure_step(end);  // inserts after `first`; earlier indexes stay valid
    for (std::size_t window = first;
         window < timeline_.size() && timeline_[window].time < end; ++window)
      timeline_[window].level -= job.nodes;

    if (start == now) out.push_back(id);
  }
  return out;
}

}  // namespace eslurm::sched
