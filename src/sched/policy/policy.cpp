#include "sched/policy/policy.hpp"

#include <algorithm>

#include "sched/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::sched::policy {

PolicyState::PolicyState(PolicyConfig config) : config_(std::move(config)) {}

void PolicyState::bind(const JobPool& pool) {
  config_.accounts.bind(pool);
  config_.qos.bind(pool);
}

void PolicyState::refresh_factors(const JobPool& pool, SimTime now) {
  bind(pool);
  for (const JobId id : pool.pending()) config_.accounts.ensure_user(pool.get(id));
  config_.accounts.fair_tree_factors(now, factors_);
}

double PolicyState::share_factor(const Job& job) const {
  const int index = config_.accounts.user_of(job);
  return index == AccountTree::kNone || static_cast<std::size_t>(index) >= factors_.size()
             ? 1.0
             : factors_[index];
}

void PolicyState::begin_admission(const JobPool& pool) {
  if (config_.enforce_limits) config_.accounts.usage_from(pool, usage_);
}

bool PolicyState::held_by_limits(const Job& job) {
  if (!config_.enforce_limits) return false;
  const auto reason =
      config_.accounts.may_start(job, config_.qos.resolve(job), usage_);
  if (!reason) return false;
  ++limit_holds_;
  if (telemetry_)
    telemetry_->metrics
        .counter("sched.policy.limit_holds", {{"reason", std::string(*reason)}})
        .inc();
  return true;
}

void PolicyState::admit(const Job& job) {
  if (config_.enforce_limits) config_.accounts.add_usage(usage_, job);
}

SimTime PolicyState::kill_window_end(const Job& job, SimTime now) const {
  const SimTime limit = job.user_estimate > 0
                            ? std::max(job.user_estimate, job.estimate_used)
                            : job.estimate_used;
  if (limit <= 0) return kTimeNever;  // unbounded job: assume the worst
  return now + limit + config_.reservation_margin;
}

bool PolicyState::carve_blocks(const Job& job, int free_nodes, SimTime now) {
  const int carve =
      config_.reservations.empty()
          ? 0
          : config_.reservations.carve_out(job, now, kill_window_end(job, now));
  if (job.nodes <= free_nodes - carve) return false;
  if (job.nodes <= free_nodes) {
    // It is specifically the reservation carve-out that blocks it.
    ++carve_skips_;
    if (telemetry_)
      telemetry_->metrics.counter("sched.policy.reservation_carve_skips").inc();
  }
  return true;
}

void PolicyState::charge(const Job& job, SimTime ran, SimTime now) {
  config_.accounts.ensure_user(job.user, job.account);
  config_.accounts.charge(job, static_cast<double>(job.nodes) * to_seconds(ran), now);
}

void PolicyState::audit(const JobPool& pool) {
  if (!config_.enforce_limits) return;
  config_.accounts.usage_from(pool, audit_usage_);
  const std::size_t bad = config_.accounts.violations(audit_usage_);
  if (bad == 0) return;
  violations_ += bad;
  if (telemetry_)
    telemetry_->metrics.counter("sched.policy.limit_violations")
        .inc(static_cast<double>(bad));
}

}  // namespace eslurm::sched::policy

namespace eslurm::sched {

// Preemption victim selection is the last policy stage; it lives with the
// others but prices victims by the pipeline's ordering.
std::vector<policy::PreemptionOrder> Scheduler::preemption_orders(const JobPool& pool,
                                                                  int free_nodes,
                                                                  SimTime now) {
  if (!policy_) return {};
  policy::PolicyState& state = *policy_;
  const policy::PolicyConfig& config = state.config_;
  if (!config.enable_preemption || config.preempt_mode == policy::PreemptMode::Off)
    return {};
  if (state.blocked_head_ == kNoJob || !pool.contains(state.blocked_head_)) return {};
  const Job& head = pool.get(state.blocked_head_);
  if (head.state != JobState::Pending) return {};
  state.bind(pool);  // victims are priced through their keys
  if (now - head.submit_time < config.preempt_wait) return {};
  const policy::QosClass& head_qos = config.qos.resolve(head.qos);
  if (head_qos.preempts.empty()) return {};

  // Victims already in their grace window will free their nodes shortly;
  // count that capacity before ordering more evictions.
  int incoming = 0;
  struct Candidate {
    double priority;
    SimTime started;
    JobId id;
    int nodes;
    SimTime grace;
  };
  std::vector<Candidate> candidates;
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    if (job.state != JobState::Running) continue;
    if (state.pending_preempt_.count(id)) {
      incoming += job.nodes;
      continue;
    }
    if (!config.qos.may_preempt(head.qos, job.qos)) continue;
    candidates.push_back({priority_of(job, now), job.start_time, id, job.nodes,
                          config.qos.resolve(job.qos).grace_period});
  }
  int attainable = free_nodes + incoming;
  for (const Candidate& c : candidates) attainable += c.nodes;
  if (attainable < head.nodes) return {};  // eviction cannot help; spare everyone

  // Cheapest victims first: lowest priority, then the youngest start (it
  // has the least sunk work), then the newest id for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.started != b.started) return a.started > b.started;
              return a.id > b.id;
            });
  std::vector<policy::PreemptionOrder> orders;
  int gained = free_nodes + incoming;
  for (const Candidate& c : candidates) {
    if (gained >= head.nodes) break;
    orders.push_back({c.id, config.preempt_mode, c.grace});
    gained += c.nodes;
    ++state.orders_issued_;
    if (telemetry_)
      telemetry_->metrics
          .counter("sched.policy.preempt_orders",
                   {{"mode", policy::preempt_mode_name(config.preempt_mode)}})
          .inc();
  }
  return orders;
}

}  // namespace eslurm::sched
