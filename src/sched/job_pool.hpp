// Job bookkeeping: pending queue (submit order), running set, and the
// finished history.  The RM owns one pool; schedulers read it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/job.hpp"

namespace eslurm::sched {

class JobPool {
 public:
  /// Adds a submitted job (state must be Pending) and interns its user,
  /// account and QoS names into the pool's key tables (Job::user_key...).
  /// Returns its id.
  JobId submit(Job job);

  /// Names this pool's key space.  Registries that cache key translations
  /// (KeyCache) drop them when handed a pool with another serial; a copy
  /// of a pool gets a fresh one.
  std::uint64_t serial() const { return serial_.value; }

  Job& get(JobId id);
  const Job& get(JobId id) const;
  bool contains(JobId id) const { return jobs_.count(id) > 0; }

  /// Pending job ids in submission order.
  const std::deque<JobId>& pending() const { return pending_; }
  /// Running (or starting/completing) job ids, unordered.
  const std::vector<JobId>& active() const { return active_; }
  const std::vector<JobId>& finished() const { return finished_; }
  /// Jobs knocked out by a node death, Pending again but parked outside
  /// the queue until their retry backoff elapses (release_held).
  const std::vector<JobId>& held() const { return held_; }

  std::size_t total_jobs() const { return jobs_.size(); }

  /// Moves a pending job to Starting and removes it from the queue.
  void mark_starting(JobId id);
  /// Returns a Starting job to the head of the pending queue (launch
  /// failed, e.g. an allocated node turned out to be dead).
  void requeue_starting(JobId id);
  /// Returns a Running job to the head of the pending queue (preemption
  /// in requeue mode).  Start/end are cleared: the rerun starts from
  /// scratch and consumes the full runtime again.
  void requeue_running(JobId id);
  void mark_running(JobId id, SimTime start);
  /// Pulls a Starting/Running job out of the active set after a node
  /// death: Pending again, but *held* -- invisible to schedulers (they
  /// read pending()) until release_held re-queues it at the head.
  /// Unlike requeue_running this charges no preempt_count: a node death
  /// is a failure, not an eviction.
  void requeue_held(JobId id);
  /// Ends a hold: the job re-enters the head of the pending queue.
  void release_held(JobId id);
  /// end_state must be Completed, TimedOut, Cancelled or Failed.
  void mark_finished(JobId id, SimTime end, JobState end_state);
  /// Cancels a job still in the pending queue (e.g. failed dependency).
  void cancel_pending(JobId id, SimTime now);
  /// Resources fully reclaimed (job occupation ends).
  void mark_released(JobId id, SimTime released);

  /// Nodes currently held by active jobs.
  int nodes_in_use() const { return nodes_in_use_; }

 private:
  struct Serial {
    Serial();
    Serial(const Serial&) : Serial() {}
    Serial& operator=(const Serial&) {
      value = Serial().value;
      return *this;
    }
    std::uint64_t value;
  };
  using KeyTable = std::unordered_map<std::string, NameKey>;

  Serial serial_;
  KeyTable user_keys_;
  KeyTable account_keys_;
  KeyTable qos_keys_;
  std::unordered_map<JobId, Job> jobs_;
  std::deque<JobId> pending_;
  std::vector<JobId> active_;
  std::vector<JobId> finished_;
  std::vector<JobId> held_;
  int nodes_in_use_ = 0;
};

/// One registry's translation of a pool's name keys into its own dense
/// indices, filled at the first lookup of each key.  It serves one pool at
/// a time: binding a pool with another serial drops every entry, and an
/// unbound cache (or a job with no keys) always misses, so callers fall
/// back to the name.
class KeyCache {
 public:
  static constexpr int kMiss = -1;

  void bind(const JobPool& pool) {
    if (pool.serial() == serial_) return;
    serial_ = pool.serial();
    entries_.clear();
  }
  void clear() { entries_.clear(); }
  /// The index cached for `key`, else `lookup()` (the by-name answer),
  /// cached unless it is kMiss: a name not found now may be added later.
  template <class Lookup>
  int find_or(NameKey key, Lookup lookup) {
    const auto slot = static_cast<std::size_t>(key);
    const bool keyed = serial_ != 0 && key >= 0;
    if (keyed && slot < entries_.size() && entries_[slot] != kMiss) return entries_[slot];
    const int index = lookup();
    if (keyed && index != kMiss) {
      if (slot >= entries_.size()) entries_.resize(slot + 1, kMiss);
      entries_[slot] = index;
    }
    return index;
  }

 private:
  std::uint64_t serial_ = 0;  ///< 0 = unbound (pool serials start at 1)
  std::vector<int> entries_;
};

}  // namespace eslurm::sched
