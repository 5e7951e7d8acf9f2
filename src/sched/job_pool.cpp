#include "sched/job_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace eslurm::sched {

namespace {

std::atomic<std::uint64_t> next_serial{1};

NameKey intern(std::unordered_map<std::string, NameKey>& table, const std::string& name) {
  return table.try_emplace(name, static_cast<NameKey>(table.size())).first->second;
}

}  // namespace

JobPool::Serial::Serial() : value(next_serial.fetch_add(1, std::memory_order_relaxed)) {}

JobId JobPool::submit(Job job) {
  if (job.id == kNoJob) throw std::invalid_argument("JobPool::submit: job needs an id");
  if (job.state != JobState::Pending)
    throw std::invalid_argument("JobPool::submit: job must be Pending");
  const JobId id = job.id;
  if (jobs_.count(id)) throw std::invalid_argument("JobPool::submit: duplicate job id");
  job.user_key = intern(user_keys_, job.user);
  job.account_key = intern(account_keys_, job.account);
  job.qos_key = intern(qos_keys_, job.qos);
  jobs_.emplace(id, std::move(job));
  pending_.push_back(id);
  return id;
}

Job& JobPool::get(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobPool::get: unknown job");
  return it->second;
}

const Job& JobPool::get(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobPool::get: unknown job");
  return it->second;
}

void JobPool::mark_starting(JobId id) {
  Job& job = get(id);
  if (job.state != JobState::Pending)
    throw std::logic_error("JobPool::mark_starting: job not pending");
  const auto it = std::find(pending_.begin(), pending_.end(), id);
  if (it == pending_.end()) throw std::logic_error("JobPool: pending queue corrupt");
  pending_.erase(it);
  job.state = JobState::Starting;
  active_.push_back(id);
  nodes_in_use_ += job.nodes;
}

void JobPool::requeue_starting(JobId id) {
  Job& job = get(id);
  if (job.state != JobState::Starting)
    throw std::logic_error("JobPool::requeue_starting: job not starting");
  const auto it = std::find(active_.begin(), active_.end(), id);
  if (it == active_.end()) throw std::logic_error("JobPool: active list corrupt");
  active_.erase(it);
  nodes_in_use_ -= job.nodes;
  job.state = JobState::Pending;
  job.start_time = -1;
  pending_.push_front(id);  // it keeps its place at the head of the queue
}

void JobPool::requeue_running(JobId id) {
  Job& job = get(id);
  if (job.state != JobState::Running)
    throw std::logic_error("JobPool::requeue_running: job not running");
  const auto it = std::find(active_.begin(), active_.end(), id);
  if (it == active_.end()) throw std::logic_error("JobPool: active list corrupt");
  active_.erase(it);
  nodes_in_use_ -= job.nodes;
  job.state = JobState::Pending;
  job.start_time = -1;
  job.end_time = -1;
  ++job.preempt_count;
  pending_.push_front(id);  // a victim does not lose its queue position
}

void JobPool::requeue_held(JobId id) {
  Job& job = get(id);
  if (job.state != JobState::Running && job.state != JobState::Starting)
    throw std::logic_error("JobPool::requeue_held: job not active");
  const auto it = std::find(active_.begin(), active_.end(), id);
  if (it == active_.end()) throw std::logic_error("JobPool: active list corrupt");
  active_.erase(it);
  nodes_in_use_ -= job.nodes;
  job.state = JobState::Pending;
  job.start_time = -1;
  job.end_time = -1;
  held_.push_back(id);
}

void JobPool::release_held(JobId id) {
  const auto it = std::find(held_.begin(), held_.end(), id);
  if (it == held_.end()) throw std::logic_error("JobPool::release_held: job not held");
  held_.erase(it);
  pending_.push_front(id);  // a failure victim keeps its queue position
}

void JobPool::mark_running(JobId id, SimTime start) {
  Job& job = get(id);
  if (job.state != JobState::Starting)
    throw std::logic_error("JobPool::mark_running: job not starting");
  job.state = JobState::Running;
  job.start_time = start;
}

void JobPool::mark_finished(JobId id, SimTime end, JobState end_state) {
  Job& job = get(id);
  if (end_state != JobState::Completed && end_state != JobState::TimedOut &&
      end_state != JobState::Cancelled && end_state != JobState::Failed)
    throw std::invalid_argument("JobPool::mark_finished: bad end state");
  job.state = end_state;
  job.end_time = end;
}

void JobPool::cancel_pending(JobId id, SimTime now) {
  Job& job = get(id);
  if (job.state != JobState::Pending)
    throw std::logic_error("JobPool::cancel_pending: job not pending");
  const auto it = std::find(pending_.begin(), pending_.end(), id);
  if (it == pending_.end()) throw std::logic_error("JobPool: pending queue corrupt");
  pending_.erase(it);
  job.state = JobState::Cancelled;
  job.end_time = now;
  job.release_time = now;
  finished_.push_back(id);
}

void JobPool::mark_released(JobId id, SimTime released) {
  Job& job = get(id);
  if (!job.finished())
    throw std::logic_error("JobPool::mark_released: job not finished");
  if (job.release_time >= 0) return;  // already released
  job.release_time = released;
  const auto it = std::find(active_.begin(), active_.end(), id);
  if (it != active_.end()) {
    active_.erase(it);
    nodes_in_use_ -= job.nodes;
  }
  finished_.push_back(id);
}

}  // namespace eslurm::sched
