// Tests for the synthetic workload generator, trace I/O, and the Fig. 5
// statistics.  The generator tests validate the *measured* statistics of
// generated traces against the paper's published marginals.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "trace/generator.hpp"
#include "trace/statistics.hpp"
#include "trace/trace_io.hpp"
#include "util/stats.hpp"

namespace eslurm::trace {
namespace {

std::vector<sched::Job> small_trace(const WorkloadProfile& profile, SimTime duration) {
  TraceGenerator generator(profile);
  return generator.generate(duration);
}

TEST(GeneratorTest, ProducesOrderedIdsAndTimes) {
  const auto jobs = small_trace(tianhe2a_profile(), days(2));
  ASSERT_GT(jobs.size(), 100u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i + 1);
    if (i) {
      EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
    }
    EXPECT_GE(jobs[i].submit_time, 0);
    EXPECT_LT(jobs[i].submit_time, days(2));
    EXPECT_GT(jobs[i].actual_runtime, 0);
    EXPECT_GT(jobs[i].user_estimate, 0);
    EXPECT_GE(jobs[i].nodes, 1);
    EXPECT_EQ(jobs[i].cores, jobs[i].nodes * 12);
  }
}

TEST(GeneratorTest, DeterministicForSameProfile) {
  const auto a = small_trace(tianhe2a_profile(), days(1));
  const auto b = small_trace(tianhe2a_profile(), days(1));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].actual_runtime, b[i].actual_runtime);
  }
}

TEST(GeneratorTest, TargetJobCountApproximatelyHit) {
  TraceGenerator generator(ng_tianhe_profile());
  const auto jobs = generator.generate_jobs(2000, days(7));
  EXPECT_GT(jobs.size(), 1500u);
  EXPECT_LT(jobs.size(), 2500u);
}

TEST(GeneratorTest, MostEstimatesOverestimate) {
  // Fig. 5a: 80-90% of runtimes are overestimated.
  const auto jobs = small_trace(tianhe2a_profile(), days(4));
  const auto samples = estimate_accuracy_samples(jobs);
  ASSERT_GT(samples.size(), 1000u);
  std::size_t over = 0;
  for (double p : samples)
    if (p > 1.0) ++over;
  const double frac = static_cast<double>(over) / samples.size();
  EXPECT_GT(frac, 0.75);
  EXPECT_LT(frac, 0.97);
}

TEST(GeneratorTest, LongJobsSubmittedInTheEvening) {
  // Section V-A: 71.4% of > 6 h jobs submitted between 18:00 and 24:00.
  const auto jobs = small_trace(tianhe2a_profile(), days(6));
  const double frac = long_job_evening_fraction(jobs);
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.9);
}

TEST(GeneratorTest, UsersResubmitHeavily) {
  // Section V-A: ~89.2% probability of resubmitting within 24 h.
  const auto jobs = small_trace(tianhe2a_profile(), days(5));
  const double frac = resubmit_within_24h_fraction(jobs);
  EXPECT_GT(frac, 0.7);
}

TEST(GeneratorTest, CorrelationDecaysWithInterval) {
  // Fig. 5b: decreasing curve; Tianhe-2A plateaus well above NG-Tianhe.
  const std::vector<double> edges{1, 5, 10, 20, 30, 40, 50};
  WorkloadProfile th = tianhe2a_profile();
  th.jobs_per_hour = 40;  // keep test fast
  const auto th_curve = correlation_vs_interval(small_trace(th, days(7)), edges);
  WorkloadProfile ng = ng_tianhe_profile();
  ng.jobs_per_hour = 40;
  const auto ng_curve = correlation_vs_interval(small_trace(ng, days(7)), edges);

  ASSERT_GT(th_curve.pairs.front(), 100u);
  ASSERT_GT(th_curve.pairs.back(), 100u);
  // Short-interval correlation is high, long-interval lower.
  EXPECT_GT(th_curve.ratio.front(), th_curve.ratio.back());
  EXPECT_GT(ng_curve.ratio.front(), ng_curve.ratio.back() + 0.2);
  // Plateau ordering: mature Tianhe-2A >> young NG-Tianhe (0.3 vs ~0).
  EXPECT_GT(th_curve.ratio.back(), 0.15);
  EXPECT_LT(ng_curve.ratio.back(), 0.12);
}

TEST(GeneratorTest, CorrelationDecaysWithIdGap) {
  // Fig. 5c: decays and stabilizes at a low base rate past gap ~700.
  WorkloadProfile th = tianhe2a_profile();
  th.jobs_per_hour = 60;
  const auto jobs = small_trace(th, days(7));
  const std::vector<std::size_t> edges{10, 50, 200, 700, 1500};
  const auto curve = correlation_vs_id_gap(jobs, edges);
  ASSERT_GT(curve.pairs.back(), 100u);
  EXPECT_GT(curve.ratio.front(), curve.ratio.back());
  EXPECT_LT(curve.ratio.back(), 0.2);
}

TEST(PolicyTagsTest, QosMixApproximatesRequestedFractions) {
  WorkloadProfile profile = tianhe2a_profile();
  profile.qos_high_frac = 0.2;
  profile.qos_low_frac = 0.3;
  const auto jobs = small_trace(profile, days(3));
  ASSERT_GT(jobs.size(), 500u);
  std::size_t high = 0, low = 0;
  for (const auto& job : jobs) {
    if (job.qos == "high") ++high;
    else if (job.qos == "low") ++low;
    else EXPECT_TRUE(job.qos.empty());
  }
  const double n = static_cast<double>(jobs.size());
  EXPECT_NEAR(high / n, 0.2, 0.05);
  EXPECT_NEAR(low / n, 0.3, 0.05);
}

TEST(PolicyTagsTest, AccountTaggingIsAStableFunctionOfTheUser) {
  WorkloadProfile profile = tianhe2a_profile();
  profile.account_count = 8;
  const auto jobs = small_trace(profile, days(1));
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) {
    // Every job lands in one of the requested accounts, and resubmits by
    // the same user always charge the same account.
    EXPECT_EQ(job.account, account_for_user(profile, job.user));
    EXPECT_EQ(job.account.rfind("acct", 0), 0u) << job.account;
  }
  // FNV-1a is pinned, not std::hash: the mapping is toolchain-stable.
  EXPECT_EQ(account_for_user(profile, "user1"), account_for_user(profile, "user1"));
  WorkloadProfile untagged = tianhe2a_profile();
  EXPECT_EQ(account_for_user(untagged, "user1"), "");
}

TEST(PolicyTagsTest, TagsDoNotPerturbTheBaseTrace) {
  // The tags ride on a dedicated RNG stream: a tagged profile must emit
  // the bit-identical base trace, differing only in account/qos fields.
  WorkloadProfile tagged = tianhe2a_profile();
  tagged.qos_high_frac = 0.25;
  tagged.qos_low_frac = 0.25;
  tagged.account_count = 8;
  const auto plain_jobs = small_trace(tianhe2a_profile(), days(1));
  const auto tagged_jobs = small_trace(tagged, days(1));
  ASSERT_EQ(plain_jobs.size(), tagged_jobs.size());
  for (std::size_t i = 0; i < plain_jobs.size(); ++i) {
    EXPECT_EQ(plain_jobs[i].id, tagged_jobs[i].id);
    EXPECT_EQ(plain_jobs[i].user, tagged_jobs[i].user);
    EXPECT_EQ(plain_jobs[i].name, tagged_jobs[i].name);
    EXPECT_EQ(plain_jobs[i].submit_time, tagged_jobs[i].submit_time);
    EXPECT_EQ(plain_jobs[i].nodes, tagged_jobs[i].nodes);
    EXPECT_EQ(plain_jobs[i].actual_runtime, tagged_jobs[i].actual_runtime);
    EXPECT_EQ(plain_jobs[i].user_estimate, tagged_jobs[i].user_estimate);
    EXPECT_TRUE(plain_jobs[i].account.empty());
    EXPECT_TRUE(plain_jobs[i].qos.empty());
  }
}

TEST(PolicyTagsTest, AccountHierarchyGroupsProjectsUnderDivisions) {
  WorkloadProfile profile = tianhe2a_profile();
  profile.account_count = 8;
  profile.account_depth = 2;
  const auto edges = account_hierarchy(profile);
  // 8/4 = 2 divisions under the root, then the 8 projects under them.
  ASSERT_EQ(edges.size(), 10u);
  EXPECT_EQ(edges[0], (std::pair<std::string, std::string>{"div0", ""}));
  EXPECT_EQ(edges[1], (std::pair<std::string, std::string>{"div1", ""}));
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(edges[2 + k].first, "acct" + std::to_string(k));
    EXPECT_EQ(edges[2 + k].second, "div" + std::to_string(k % 2));
  }
  // Flat hierarchies hang projects directly off the root.
  profile.account_depth = 1;
  for (const auto& [name, parent] : account_hierarchy(profile))
    EXPECT_EQ(parent, "");
  profile.account_count = 0;
  EXPECT_TRUE(account_hierarchy(profile).empty());
}

TEST(StatisticsTest, CorrelationPredicate) {
  sched::Job a, b;
  a.name = b.name = "app1";
  a.nodes = b.nodes = 8;
  a.cores = b.cores = 96;
  a.actual_runtime = seconds(100);
  b.actual_runtime = seconds(150);
  EXPECT_TRUE(jobs_correlated(a, b));
  b.actual_runtime = seconds(300);  // ratio 3 -> not similar
  EXPECT_FALSE(jobs_correlated(a, b));
  b.actual_runtime = seconds(100);
  b.nodes = 16;
  EXPECT_FALSE(jobs_correlated(a, b));
  b.nodes = 8;
  b.name = "app2";
  EXPECT_FALSE(jobs_correlated(a, b));
}

TEST(StatisticsTest, EmptyInputsAreSafe) {
  EXPECT_TRUE(estimate_accuracy_samples({}).empty());
  const auto c1 = correlation_vs_interval({}, {1.0, 2.0});
  EXPECT_EQ(c1.pairs, (std::vector<std::size_t>{0, 0}));
  const auto c2 = correlation_vs_id_gap({}, {10});
  EXPECT_EQ(c2.pairs, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(long_job_evening_fraction({}), 0.0);
  EXPECT_DOUBLE_EQ(resubmit_within_24h_fraction({}), 0.0);
}

TEST(TraceIoTest, RoundTripPreservesJobs) {
  const auto jobs = small_trace(ng_tianhe_profile(), hours(20));
  ASSERT_FALSE(jobs.empty());
  std::stringstream text;
  write_trace(text, jobs);
  const auto parsed = read_trace(text);
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_EQ(parsed[i].nodes, jobs[i].nodes);
    EXPECT_EQ(parsed[i].cores, jobs[i].cores);
    EXPECT_EQ(parsed[i].user, jobs[i].user);
    EXPECT_EQ(parsed[i].name, jobs[i].name);
    // Times survive within the 1 ms serialization precision.
    EXPECT_NEAR(to_seconds(parsed[i].submit_time), to_seconds(jobs[i].submit_time), 1e-3);
    EXPECT_NEAR(to_seconds(parsed[i].actual_runtime), to_seconds(jobs[i].actual_runtime),
                1e-3);
  }
}

TEST(TraceIoTest, CommentsAndBlanksSkipped) {
  std::istringstream text("# header\n\n1 0.0 10.0 20.0 2 24 u a\n");
  const auto jobs = read_trace(text);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].nodes, 2);
}

TEST(TraceIoTest, MalformedLineThrows) {
  std::istringstream text("1 2 3\n");
  EXPECT_THROW(read_trace(text), std::invalid_argument);
}

TEST(ProfilesTest, NamedProfilesDiffer) {
  EXPECT_EQ(tianhe2a_profile().name, "tianhe-2a");
  EXPECT_EQ(ng_tianhe_profile().name, "ng-tianhe");
  EXPECT_LT(tianhe2a_profile().config_churn, ng_tianhe_profile().config_churn);
}

}  // namespace
}  // namespace eslurm::trace
