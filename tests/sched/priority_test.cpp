#include <gtest/gtest.h>

#include <cmath>

#include "sched/priority.hpp"
#include "sched/scheduler.hpp"

namespace eslurm::sched {
namespace {

Job make_job(JobId id, const std::string& user, int nodes, SimTime estimate,
             SimTime submit = 0) {
  Job job;
  job.id = id;
  job.user = user;
  job.name = "app";
  job.nodes = nodes;
  job.cores = nodes * 12;
  job.submit_time = submit;
  job.actual_runtime = estimate;
  job.user_estimate = estimate;
  return job;
}

/// The "priority" preset (multifactor EASY) with the given weights.
Scheduler priority_preset(const PriorityWeights& weights, int cluster_nodes) {
  policy::PolicyConfig config;
  config.weights = weights;
  return make_scheduler("priority", cluster_nodes, config);
}

TEST(FairshareTest, UsageDecaysWithHalfLife) {
  FairshareTracker tracker(days(1));
  tracker.record_usage("alice", 1000.0, 0);
  EXPECT_DOUBLE_EQ(tracker.raw_usage("alice", 0), 1000.0);
  EXPECT_NEAR(tracker.raw_usage("alice", days(1)), 500.0, 1e-6);
  EXPECT_NEAR(tracker.raw_usage("alice", days(3)), 125.0, 1e-6);
  EXPECT_DOUBLE_EQ(tracker.raw_usage("nobody", days(1)), 0.0);
}

TEST(FairshareTest, ShareFactorFallsWithUsage) {
  FairshareTracker tracker(days(1));
  const double norm = 1000.0;
  EXPECT_DOUBLE_EQ(tracker.share_factor("fresh", 0, norm), 1.0);
  tracker.record_usage("heavy", 1000.0, 0);
  const double heavy = tracker.share_factor("heavy", 0, norm);
  EXPECT_LT(heavy, 0.01);  // consumed a full machine-halflife
  tracker.record_usage("light", 50.0, 0);
  EXPECT_GT(tracker.share_factor("light", 0, norm), heavy);
}

TEST(FairshareTest, InvalidHalfLifeThrows) {
  EXPECT_THROW(FairshareTracker(0), std::invalid_argument);
}

TEST(FairshareTest, DecayRebasesCorrectlyOnExactHalfLifeBoundaries) {
  // Recording exactly on half-life boundaries must decay the stored value
  // before adding, so interleaved records compose: 1000 halves to 500,
  // plus 300 fresh = 800, which halves again to 400.
  FairshareTracker tracker(days(1));
  tracker.record_usage("alice", 1000.0, 0);
  tracker.record_usage("alice", 300.0, days(1));
  EXPECT_NEAR(tracker.raw_usage("alice", days(1)), 800.0, 1e-9);
  EXPECT_NEAR(tracker.raw_usage("alice", days(2)), 400.0, 1e-9);
  // Querying in the past (clock never rewinds in the sim, but callers may
  // hold stale timestamps) returns the undecayed value, not an inflation.
  EXPECT_NEAR(tracker.raw_usage("alice", seconds(1)), 800.0, 1e-9);
}

TEST(FairshareTest, UnknownUserHasFullShareFactor) {
  FairshareTracker tracker(days(1));
  tracker.record_usage("known", 500.0, 0);
  EXPECT_DOUBLE_EQ(tracker.share_factor("never-seen", days(5), 1000.0), 1.0);
  EXPECT_LT(tracker.share_factor("known", 0, 1000.0), 1.0);
}

TEST(FairshareTest, ZeroClusterCapacityDoesNotDivideByZero) {
  // A degenerate normalization constant (empty machine, or a config hole)
  // must clamp, not produce NaN/inf priorities.
  FairshareTracker tracker(days(1));
  tracker.record_usage("u", 1000.0, 0);
  const double factor = tracker.share_factor("u", 0, 0.0);
  EXPECT_TRUE(std::isfinite(factor));
  EXPECT_GE(factor, 0.0);
  EXPECT_LE(factor, 1.0);
  EXPECT_DOUBLE_EQ(tracker.share_factor("fresh", 0, -5.0), 1.0);
}

TEST(PriorityCalcTest, AgeRaisesPriorityUpToCap) {
  PriorityWeights weights;
  weights.age_per_day = 100.0;
  weights.age_cap_days = 2.0;
  weights.job_size = 0.0;
  weights.fairshare = 0.0;
  PriorityCalculator calc(weights, 100, 1e9);
  FairshareTracker fairshare;
  const Job job = make_job(1, "u", 1, seconds(10), 0);
  EXPECT_DOUBLE_EQ(calc.priority(job, days(1), fairshare), 100.0);
  EXPECT_DOUBLE_EQ(calc.priority(job, days(5), fairshare), 200.0);  // capped
}

TEST(PriorityCalcTest, SizeAndFairshareContribute) {
  PriorityWeights weights;
  weights.age_per_day = 0.0;
  weights.job_size = 1000.0;
  weights.fairshare = 500.0;
  PriorityCalculator calc(weights, 100, 1000.0);
  FairshareTracker fairshare;
  const Job wide = make_job(1, "fresh", 50, seconds(10));
  const Job narrow = make_job(2, "fresh", 1, seconds(10));
  EXPECT_GT(calc.priority(wide, 0, fairshare), calc.priority(narrow, 0, fairshare));
  fairshare.record_usage("hog", 10000.0, 0);
  const Job hog_job = make_job(3, "hog", 50, seconds(10));
  EXPECT_LT(calc.priority(hog_job, 0, fairshare), calc.priority(wide, 0, fairshare));
}

TEST(PrioritySchedulerTest, HighPriorityJumpsTheQueue) {
  JobPool pool;
  // Heavy user submits first; fresh user's identical job should rank
  // higher via fair-share and start first when only one fits.
  pool.submit(make_job(1, "hog", 8, minutes(10), 0));
  pool.submit(make_job(2, "fresh", 8, minutes(10), seconds(1)));
  PriorityWeights weights;
  weights.age_per_day = 0.0;
  weights.job_size = 0.0;
  weights.fairshare = 1000.0;
  Scheduler sched = priority_preset(weights, 16);
  sched.fairshare().record_usage("hog", 1e9, 0);
  const auto decisions = sched.schedule(pool, 8, seconds(2));
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front(), 2u);
}

TEST(PrioritySchedulerTest, ReleasedUsageFeedsFairshare) {
  Scheduler sched = priority_preset(PriorityWeights{}, 64);
  Job job = make_job(1, "u", 4, minutes(10));
  job.start_time = 0;
  job.end_time = minutes(10);
  job.state = JobState::Completed;
  sched.on_job_released(job, minutes(10));
  EXPECT_NEAR(sched.fairshare().raw_usage("u", minutes(10)), 4.0 * 600.0, 1.0);
}

TEST(ConservativeTest, NeverDelaysEarlierJobs) {
  // Machine: 10 nodes.  Running: 8 until t=100.  Queue: J1 needs 10
  // (reserved at t=100), J2 needs 2 for 1000 s.  EASY would hold J2 only
  // via the spare rule; conservative gives J2 a reservation *after* J1
  // unless it fits without delaying J1.
  JobPool pool;
  Job running = make_job(1, "u", 8, seconds(100));
  pool.submit(running);
  pool.get(1).estimate_used = seconds(100);
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.submit(make_job(2, "u", 10, seconds(50)));
  pool.submit(make_job(3, "u", 2, seconds(1000)));
  Scheduler sched = make_scheduler("conservative", 10);
  const auto decisions = sched.schedule(pool, 2, 0);
  EXPECT_TRUE(decisions.empty());  // J3 would collide with J2's reservation
}

TEST(ConservativeTest, BackfillsWhenSafe) {
  JobPool pool;
  Job running = make_job(1, "u", 8, seconds(100));
  pool.submit(running);
  pool.get(1).estimate_used = seconds(100);
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.submit(make_job(2, "u", 10, seconds(50)));
  pool.submit(make_job(3, "u", 2, seconds(60)));  // ends before J2's slot
  Scheduler sched = make_scheduler("conservative", 10);
  const auto decisions = sched.schedule(pool, 2, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{3}));
}

TEST(ConservativeTest, StartsHeadWhenItFits) {
  JobPool pool;
  pool.submit(make_job(1, "u", 4, seconds(100)));
  pool.submit(make_job(2, "u", 4, seconds(100)));
  Scheduler sched = make_scheduler("conservative", 10);
  const auto decisions = sched.schedule(pool, 8, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{1, 2}));
}

TEST(ConservativeTest, PlanningDepthBoundsWork) {
  JobPool pool;
  pool.submit(make_job(1, "u", 100, seconds(100)));  // blocks everything
  for (JobId id = 2; id <= 20; ++id) pool.submit(make_job(id, "u", 1, seconds(10)));
  Scheduler sched = make_scheduler("conservative", 10, policy::PolicyConfig(),
                                   /*planning_depth=*/5);
  const auto decisions = sched.schedule(pool, 10, 0);
  // Only the first 5 queue entries were planned; 4 narrow ones fit now.
  EXPECT_EQ(decisions.size(), 4u);
}

TEST(RequeueTest, StartingJobReturnsToQueueHead) {
  JobPool pool;
  pool.submit(make_job(1, "u", 4, seconds(10)));
  pool.submit(make_job(2, "u", 4, seconds(10)));
  pool.mark_starting(1);
  EXPECT_EQ(pool.pending().front(), 2u);
  pool.requeue_starting(1);
  EXPECT_EQ(pool.pending().front(), 1u);
  EXPECT_EQ(pool.get(1).state, JobState::Pending);
  EXPECT_EQ(pool.get(1).start_time, -1);
  EXPECT_EQ(pool.nodes_in_use(), 0);
  EXPECT_THROW(pool.requeue_starting(2), std::logic_error);
}

TEST(RequeueTest, RunningJobReturnsToQueueHeadWithPreemptCount) {
  JobPool pool;
  pool.submit(make_job(1, "u", 4, seconds(100)));
  pool.submit(make_job(2, "u", 4, seconds(100)));
  pool.mark_starting(1);
  pool.mark_running(1, seconds(10));
  EXPECT_EQ(pool.nodes_in_use(), 4);
  pool.requeue_running(1);
  EXPECT_EQ(pool.pending().front(), 1u);
  EXPECT_EQ(pool.get(1).state, JobState::Pending);
  // The rerun starts from scratch: start/end cleared, eviction recorded.
  EXPECT_EQ(pool.get(1).start_time, -1);
  EXPECT_EQ(pool.get(1).end_time, -1);
  EXPECT_EQ(pool.get(1).preempt_count, 1);
  EXPECT_EQ(pool.nodes_in_use(), 0);
  EXPECT_THROW(pool.requeue_running(2), std::logic_error);  // still pending
}

}  // namespace
}  // namespace eslurm::sched
