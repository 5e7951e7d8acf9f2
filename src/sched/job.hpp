// Batch-job model shared by the trace generator, the runtime-estimation
// framework and the resource managers.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace eslurm::sched {

using JobId = std::uint64_t;
inline constexpr JobId kNoJob = 0;

/// Dense key of a user, account or QoS name in one JobPool's name tables
/// (set by JobPool::submit); kNoKey on a job never submitted to a pool.
using NameKey = std::int32_t;
inline constexpr NameKey kNoKey = -1;

enum class JobState : std::uint8_t {
  Pending,    ///< submitted, waiting for resources
  Starting,   ///< allocation done, launch broadcast in flight
  Running,
  Completing, ///< finished, termination broadcast / cleanup in flight
  Completed,
  TimedOut,   ///< killed at its wall-clock limit (right-censored runtime)
  Cancelled,
  Failed,     ///< node-death retry budget exhausted (terminal)
};

const char* job_state_name(JobState state);

struct Job {
  JobId id = kNoJob;
  std::string user;
  std::string name;        ///< application / script name
  int nodes = 1;           ///< nodes requested (jobs run in isolation)
  int cores = 1;           ///< total cores requested
  std::string partition = "batch";  ///< queue the job was submitted to
  std::string account = "";  ///< charged account ("" = unaccounted)
  std::string qos = "";      ///< QoS class name ("" = default class)
  JobId depends_on = kNoJob;        ///< afterok dependency (0 = none)

  SimTime submit_time = 0;
  SimTime actual_runtime = 0;   ///< ground-truth runtime (trace)
  SimTime user_estimate = 0;    ///< user-requested wall limit; 0 = none

  // Filled in while the job flows through the system.
  SimTime estimate_used = 0;    ///< runtime estimate the scheduler used
  SimTime model_estimate = 0;   ///< raw estimate from the prediction model
  SimTime start_time = -1;
  SimTime end_time = -1;        ///< completion incl. termination overhead
  SimTime release_time = -1;    ///< resources fully reclaimed
  int preempt_count = 0;        ///< times preempted back into the queue
  int retry_count = 0;          ///< node-death requeues consumed so far
  /// Durable work (checkpointed) surviving across restarts; a restarted
  /// attempt resumes here instead of zero when checkpointing is on.
  SimTime checkpoint_progress = 0;
  JobState state = JobState::Pending;
  // Keys of `user`, `account` and `qos` in the pool that holds the job:
  // the scheduler pass resolves names through these, never by string.
  NameKey user_key = kNoKey;
  NameKey account_key = kNoKey;
  NameKey qos_key = kNoKey;

  SimTime wait_time() const { return start_time >= 0 ? start_time - submit_time : -1; }
  /// Runtime the system observed (censored at the limit for timeouts).
  SimTime observed_runtime() const {
    return (start_time >= 0 && end_time >= 0) ? end_time - start_time : -1;
  }
  bool finished() const {
    return state == JobState::Completed || state == JobState::TimedOut ||
           state == JobState::Cancelled || state == JobState::Failed;
  }
};

/// Bounded slowdown (Eq. 6 of the paper): max((t_w + t_r)/max(t_r, tau), 1).
double bounded_slowdown(SimTime wait, SimTime runtime, SimTime tau = seconds(10));

}  // namespace eslurm::sched
