#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sched/metrics.hpp"

namespace eslurm::sched {
namespace {

Job make_job(JobId id, int nodes, SimTime estimate, SimTime submit = 0) {
  Job job;
  job.id = id;
  job.user = "u";
  job.name = "app";
  job.nodes = nodes;
  job.cores = nodes * 12;
  job.submit_time = submit;
  job.actual_runtime = estimate;
  job.user_estimate = estimate;
  return job;
}

TEST(JobTest, BoundedSlowdownFormula) {
  // (wait + run) / max(run, tau), floored at 1.
  EXPECT_DOUBLE_EQ(bounded_slowdown(seconds(90), seconds(10)), 10.0);
  EXPECT_DOUBLE_EQ(bounded_slowdown(0, seconds(100)), 1.0);
  // Very short job: tau prevents explosion.
  EXPECT_DOUBLE_EQ(bounded_slowdown(seconds(10), seconds(1), seconds(10)), 1.1);
  EXPECT_DOUBLE_EQ(bounded_slowdown(0, seconds(1)), 1.0);  // floor
}

TEST(JobPoolTest, LifecycleTransitions) {
  JobPool pool;
  pool.submit(make_job(1, 4, seconds(100)));
  EXPECT_EQ(pool.pending().size(), 1u);
  pool.mark_starting(1);
  EXPECT_TRUE(pool.pending().empty());
  EXPECT_EQ(pool.nodes_in_use(), 4);
  pool.mark_running(1, seconds(5));
  pool.mark_finished(1, seconds(105), JobState::Completed);
  pool.mark_released(1, seconds(106));
  EXPECT_EQ(pool.nodes_in_use(), 0);
  EXPECT_EQ(pool.finished().size(), 1u);
  const Job& job = pool.get(1);
  EXPECT_EQ(job.wait_time(), seconds(5));
  EXPECT_EQ(job.observed_runtime(), seconds(100));
  EXPECT_EQ(job.release_time, seconds(106));
}

TEST(JobPoolTest, InvalidTransitionsThrow) {
  JobPool pool;
  pool.submit(make_job(1, 1, seconds(10)));
  EXPECT_THROW(pool.mark_running(1, 0), std::logic_error);
  EXPECT_THROW(pool.mark_released(1, 0), std::logic_error);
  EXPECT_THROW(pool.get(99), std::out_of_range);
  EXPECT_THROW(pool.submit(make_job(1, 1, seconds(10))), std::invalid_argument);
  Job bad = make_job(2, 1, seconds(10));
  bad.state = JobState::Running;
  EXPECT_THROW(pool.submit(bad), std::invalid_argument);
}

TEST(FcfsTest, StartsHeadWhileItFits) {
  JobPool pool;
  pool.submit(make_job(1, 4, seconds(10)));
  pool.submit(make_job(2, 4, seconds(10)));
  pool.submit(make_job(3, 4, seconds(10)));
  Scheduler fcfs = make_scheduler("fcfs", 12);
  const auto decisions = fcfs.schedule(pool, 8, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{1, 2}));
}

TEST(FcfsTest, HeadBlocksQueueEvenIfLaterJobsFit) {
  JobPool pool;
  pool.submit(make_job(1, 10, seconds(10)));
  pool.submit(make_job(2, 1, seconds(10)));
  Scheduler fcfs = make_scheduler("fcfs", 8);
  EXPECT_TRUE(fcfs.schedule(pool, 8, 0).empty());
}

struct BackfillFixture : ::testing::Test {
  JobPool pool;
  Scheduler sched = make_scheduler("easy", 10);

  void start(JobId id, SimTime start_at, SimTime estimate) {
    Job& job = pool.get(id);
    job.estimate_used = estimate;
    pool.mark_starting(id);
    pool.mark_running(id, start_at);
  }
};

TEST_F(BackfillFixture, ShortJobBackfillsBehindBlockedHead) {
  // Machine: 10 nodes. Running: 8 nodes until t=100. Head: needs 10.
  // Short 2-node job ending before t=100 may backfill.
  pool.submit(make_job(1, 8, seconds(100)));
  start(1, 0, seconds(100));
  pool.submit(make_job(2, 10, seconds(50)));   // blocked head
  pool.submit(make_job(3, 2, seconds(50)));    // fits, ends at 50 < 100
  const auto decisions = sched.schedule(pool, 2, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{3}));
  EXPECT_EQ(sched.backfilled_jobs(), 1u);
}

TEST_F(BackfillFixture, LongJobThatWouldDelayHeadIsHeldBack) {
  pool.submit(make_job(1, 8, seconds(100)));
  start(1, 0, seconds(100));
  pool.submit(make_job(2, 10, seconds(50)));   // head reserved at t=100
  pool.submit(make_job(3, 2, seconds(500)));   // would overlap reservation
  const auto decisions = sched.schedule(pool, 2, 0);
  EXPECT_TRUE(decisions.empty());
}

TEST_F(BackfillFixture, LongJobAllowedOnSpareNodes) {
  // Machine: 10 nodes. Running: 8 until t=100. Head needs 9 -> shadow
  // t=100, spare = (2 free + 8 freed) - 9 = 1. A 1-node long job may run.
  pool.submit(make_job(1, 8, seconds(100)));
  start(1, 0, seconds(100));
  pool.submit(make_job(2, 9, seconds(50)));
  pool.submit(make_job(3, 1, seconds(10000)));
  const auto decisions = sched.schedule(pool, 2, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{3}));
}

TEST_F(BackfillFixture, HeadStartsWhenItFits) {
  pool.submit(make_job(1, 3, seconds(10)));
  pool.submit(make_job(2, 3, seconds(10)));
  const auto decisions = sched.schedule(pool, 8, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(sched.backfilled_jobs(), 0u);  // plain FCFS starts, no backfill
}

TEST_F(BackfillFixture, EstimateAccuracyChangesBackfillDecision) {
  // With an overestimated runtime the backfill candidate looks too long
  // and is held back; with an accurate estimate it proceeds.  This is the
  // mechanism behind the paper's utilization gains.
  pool.submit(make_job(1, 8, seconds(100)));
  start(1, 0, seconds(100));
  pool.submit(make_job(2, 10, seconds(50)));
  Job candidate = make_job(3, 2, seconds(30));  // really runs 30s
  candidate.user_estimate = seconds(1000);      // user says 1000s
  pool.submit(candidate);

  EXPECT_TRUE(sched.schedule(pool, 2, 0).empty());  // user estimate blocks

  pool.get(3).estimate_used = seconds(35);  // model-corrected estimate
  EXPECT_EQ(sched.schedule(pool, 2, 0), (std::vector<JobId>{3}));
}

TEST_F(BackfillFixture, UnsatisfiableHeadDoesNotBlockBackfillForever) {
  pool.submit(make_job(1, 4, seconds(100)));
  start(1, 0, seconds(100));
  pool.submit(make_job(2, 1000, seconds(50)));  // bigger than the machine
  pool.submit(make_job(3, 2, seconds(50)));
  const auto decisions = sched.schedule(pool, 6, 0);
  EXPECT_EQ(decisions, (std::vector<JobId>{3}));
}

/// The EASY pass of the "easy" preset with its shadow found by sorting
/// every release: the form the heap-selected shadow must reproduce.
std::vector<JobId> sorted_shadow_easy(const JobPool& pool, int free_nodes, SimTime now) {
  const auto estimate = [](const Job& job) {
    return job.estimate_used > 0 ? job.estimate_used : job.user_estimate;
  };
  std::vector<JobId> ordered;
  for (const JobId id : pool.pending())
    if (dependency_ready(pool, pool.get(id))) ordered.push_back(id);
  std::vector<JobId> out;
  std::size_t cursor = 0;
  for (; cursor < ordered.size(); ++cursor) {
    const Job& job = pool.get(ordered[cursor]);
    if (job.nodes > free_nodes) break;
    free_nodes -= job.nodes;
    out.push_back(job.id);
  }
  if (cursor >= ordered.size() || free_nodes <= 0) return out;
  const int head_nodes = pool.get(ordered[cursor++]).nodes;
  std::vector<std::pair<SimTime, int>> releases;
  for (const JobId id : pool.active()) {
    const Job& job = pool.get(id);
    releases.emplace_back(expected_end(job, now), job.nodes);
  }
  std::sort(releases.begin(), releases.end());
  SimTime shadow = kTimeNever;
  int spare = 0;
  int avail = free_nodes;
  for (const auto& [end, nodes] : releases) {
    avail += nodes;
    if (avail >= head_nodes) {
      shadow = end;
      spare = avail - head_nodes;
      break;
    }
  }
  for (; cursor < ordered.size() && free_nodes > 0; ++cursor) {
    const Job& job = pool.get(ordered[cursor]);
    if (job.nodes > free_nodes) continue;
    const bool ends_before_shadow = shadow == kTimeNever || now + estimate(job) <= shadow;
    const bool fits_spare = shadow == kTimeNever || job.nodes <= spare;
    if (ends_before_shadow || fits_spare) {
      free_nodes -= job.nodes;
      if (fits_spare && !ends_before_shadow) spare -= job.nodes;
      out.push_back(job.id);
    }
  }
  return out;
}

TEST(EasyShadowTest, HeapSelectedShadowMatchesSortedShadow) {
  // Random machines with many equal release times (ends on a minute grid,
  // overruns bumped past now) and heads of every width, including wider
  // than the machine can ever free.
  std::mt19937_64 rng(29);
  const auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::size_t backfilled = 0;
  for (int round = 0; round < 400; ++round) {
    JobPool pool;
    JobId next = 1;
    const SimTime now = minutes(60);
    int busy = 0;
    for (int a = uniform(0, 40); a > 0; --a) {
      Job job = make_job(next++, uniform(1, 16), minutes(uniform(1, 90)));
      job.estimate_used = uniform(0, 1) ? minutes(uniform(1, 90)) : 0;
      pool.submit(job);
      pool.mark_starting(job.id);
      pool.mark_running(job.id, minutes(uniform(0, 60)));
      busy += job.nodes;
    }
    for (int p = uniform(1, 30); p > 0; --p, ++next)
      pool.submit(make_job(next, uniform(1, 48), minutes(uniform(1, 120)),
                           seconds(static_cast<SimTime>(next))));
    const int free_nodes = uniform(0, 24);
    Scheduler sched = make_scheduler("easy", busy + free_nodes);
    const auto expected = sorted_shadow_easy(pool, free_nodes, now);
    EXPECT_EQ(sched.schedule(pool, free_nodes, now), expected) << "round " << round;
    backfilled += sched.backfilled_jobs();
  }
  EXPECT_GT(backfilled, 0u);  // the rounds exercise the shadow, not just FCFS
}

TEST(ExpectedEndTest, UsesEstimateAndCorrectsOverruns) {
  Job job = make_job(1, 1, seconds(100));
  job.start_time = seconds(10);
  job.estimate_used = seconds(100);
  EXPECT_EQ(expected_end(job, seconds(20)), seconds(110));
  // Job overran its estimate: the violated prediction is enlarged rather
  // than clamped to "now" (Tsafrir-style correction).
  EXPECT_EQ(expected_end(job, seconds(200)), seconds(200) + minutes(10));
  // Long jobs get a proportional bump.
  job.estimate_used = hours(10);
  EXPECT_EQ(expected_end(job, days(1)), days(1) + hours(2));
}

TEST(MetricsTest, ReportComputesUtilizationAndWaits) {
  JobPool pool;
  // Machine of 10 nodes observed for 100 s.  One 5-node job runs 0..100.
  Job job = make_job(1, 5, seconds(100));
  pool.submit(job);
  pool.get(1).estimate_used = seconds(100);
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.mark_finished(1, seconds(100), JobState::Completed);
  pool.mark_released(1, seconds(100));
  const auto report = compute_report(pool, 10, 0, seconds(100));
  EXPECT_NEAR(report.system_utilization, 0.5, 1e-9);
  EXPECT_EQ(report.jobs_finished, 1u);
  EXPECT_DOUBLE_EQ(report.avg_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.avg_bounded_slowdown, 1.0);
}

TEST(MetricsTest, ActiveJobsCountTowardUtilization) {
  JobPool pool;
  pool.submit(make_job(1, 10, seconds(1000)));
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  const auto report = compute_report(pool, 10, 0, seconds(100));
  EXPECT_NEAR(report.system_utilization, 1.0, 1e-9);
  EXPECT_EQ(report.jobs_finished, 0u);
}

TEST(MetricsTest, WindowClipsOccupation) {
  JobPool pool;
  pool.submit(make_job(1, 10, seconds(100)));
  pool.mark_starting(1);
  pool.mark_running(1, seconds(50));
  pool.mark_finished(1, seconds(150), JobState::Completed);
  pool.mark_released(1, seconds(150));
  // Window [0, 100): job occupies only [50, 100) of it.
  const auto report = compute_report(pool, 10, 0, seconds(100));
  EXPECT_NEAR(report.system_utilization, 0.5, 1e-9);
}

TEST(MetricsTest, DegenerateInputsGiveEmptyReport) {
  JobPool pool;
  const auto r1 = compute_report(pool, 0, 0, seconds(10));
  EXPECT_EQ(r1.jobs_finished, 0u);
  const auto r2 = compute_report(pool, 10, seconds(10), seconds(10));
  EXPECT_DOUBLE_EQ(r2.system_utilization, 0.0);
}

TEST(MetricsTest, TimedOutJobsCounted) {
  JobPool pool;
  pool.submit(make_job(1, 1, seconds(10)));
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.mark_finished(1, seconds(10), JobState::TimedOut);
  pool.mark_released(1, seconds(10));
  const auto report = compute_report(pool, 10, 0, seconds(100));
  EXPECT_EQ(report.jobs_timed_out, 1u);
  EXPECT_EQ(report.jobs_finished, 1u);
}

}  // namespace
}  // namespace eslurm::sched
