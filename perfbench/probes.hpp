// Host-time probes of single layers, run only in the traced mode and
// only after the world's digest has been taken (the world-bound probes
// mutate scheduler and estimator state).  Each returns the median of a
// few repetitions so one preempted repetition does not set the figure.
#pragma once

#include "predict/estimator.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

/// Host ns per event of self-rescheduling schedule+step chains on a
/// fresh sim::Engine.
double probe_churn_ns();

/// Host us for one ping-sized FP-Tree broadcast (51,200 targets, width
/// 50) on a fresh Engine+Network, timed until the engine drains; with or
/// without a ReliableTransport under the tree.
double probe_bcast_us(bool reliable);

/// Host us of one `scheduler.schedule` pass over `pool`.
double probe_sched_pass_us(eslurm::sched::Scheduler& scheduler,
                           const eslurm::sched::JobPool& pool, int free_nodes,
                           eslurm::SimTime now);

/// Host ms of one `estimator.retrain()`.
double probe_retrain_ms(eslurm::predict::RuntimeEstimator& estimator);

/// Host us per `estimator.estimate()` over the pool's jobs.
double probe_estimate_us(const eslurm::predict::RuntimeEstimator& estimator,
                         const eslurm::sched::JobPool& pool);

}  // namespace perfbench
