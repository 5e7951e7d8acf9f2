// Unit tests for the policy suite: QoS classes, the account hierarchy
// (admission + fair tree), advance reservations, and the assembled
// "policy" scheduler preset (admission -> priority -> carve-out ->
// backfill -> preemption orders).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "sched/policy/policy.hpp"
#include "sched/scheduler.hpp"

namespace eslurm::sched::policy {
namespace {

Job make_job(JobId id, const std::string& user, int nodes, SimTime estimate,
             SimTime submit = 0, const std::string& qos = "",
             const std::string& account = "") {
  Job job;
  job.id = id;
  job.user = user;
  job.name = "app";
  job.nodes = nodes;
  job.cores = nodes * 12;
  job.submit_time = submit;
  job.actual_runtime = estimate;
  job.user_estimate = estimate;
  job.qos = qos;
  job.account = account;
  return job;
}

// --- QoS ------------------------------------------------------------------

TEST(QosTest, StandardSetResolvesByNameWithNormalFallback) {
  const QosSet qos = QosSet::standard();
  EXPECT_EQ(qos.size(), 3u);
  EXPECT_GT(qos.resolve("high").priority_boost, 0.0);
  EXPECT_LT(qos.resolve("low").priority_boost, 0.0);
  // Untagged and unknown classes both land on the default "normal".
  EXPECT_EQ(qos.resolve("").name, "normal");
  EXPECT_EQ(qos.resolve("no-such-class").name, "normal");
  EXPECT_EQ(qos.resolve("no-such-class").priority_boost,
            qos.resolve("normal").priority_boost);
  ASSERT_NE(qos.find("low"), nullptr);
  EXPECT_EQ(qos.find("bogus"), nullptr);
}

TEST(QosTest, PreemptionMatrix) {
  const QosSet qos = QosSet::standard();
  EXPECT_TRUE(qos.may_preempt("high", "normal"));
  EXPECT_TRUE(qos.may_preempt("high", "low"));
  EXPECT_TRUE(qos.may_preempt("high", ""));  // untagged resolves to normal
  EXPECT_FALSE(qos.may_preempt("high", "high"));
  EXPECT_FALSE(qos.may_preempt("normal", "low"));  // normal preempts nothing
  EXPECT_FALSE(qos.may_preempt("low", "normal"));
}

TEST(QosTest, ExemptFlagProtectsVictimEvenWhenListed) {
  QosSet qos;
  QosClass shielded;
  shielded.name = "shielded";
  shielded.preemptable = false;
  qos.add(shielded);
  QosClass bully;
  bully.name = "bully";
  bully.preempts = {"shielded"};
  qos.add(bully);
  EXPECT_TRUE(qos.resolve("bully").may_preempt("shielded"));  // matrix says yes
  EXPECT_FALSE(qos.may_preempt("bully", "shielded"));         // exemption wins
}

TEST(QosTest, DuplicateClassNameThrows) {
  QosSet qos;
  qos.add(QosClass{.name = "x"});
  EXPECT_THROW(qos.add(QosClass{.name = "x"}), std::invalid_argument);
}

// --- account tree: admission ----------------------------------------------

TEST(AccountTreeTest, EnsureUserSelfAssemblesOnce) {
  AccountTree tree;
  tree.ensure_user("alice", "proj");
  EXPECT_TRUE(tree.has_user("alice"));
  EXPECT_TRUE(tree.has_account("proj"));
  EXPECT_EQ(tree.account_of("alice"), "proj");
  // A later sighting under a different tag does not move the user.
  tree.ensure_user("alice", "other");
  EXPECT_EQ(tree.account_of("alice"), "proj");
  EXPECT_EQ(tree.account_of("stranger"), "");
}

TEST(AccountTreeTest, QosCapsBindBeforeAssociationCaps) {
  // Slurm checks QOS limits before association limits; when both would
  // hold the job the reason must name the QoS cap.
  AccountTree tree;
  tree.set_user("u", "", 1.0, UserLimits{.max_running_jobs = 1});
  QosClass qos;
  qos.max_running_jobs_per_user = 1;
  LiveUsage usage;
  tree.add_usage(usage, make_job(1, "u", 4, minutes(10)));
  const auto reason = tree.may_start(make_job(2, "u", 4, minutes(10)), qos, usage);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, "qos-user-max-jobs");
  // With an unconstrained QoS the association cap surfaces instead.
  const auto assoc =
      tree.may_start(make_job(2, "u", 4, minutes(10)), QosClass{}, usage);
  ASSERT_TRUE(assoc.has_value());
  EXPECT_EQ(*assoc, "user-max-jobs");
}

TEST(AccountTreeTest, PerUserNodeCapHolds) {
  AccountTree tree;
  tree.set_user("u", "", 1.0, UserLimits{.max_nodes = 10});
  LiveUsage usage;
  tree.add_usage(usage, make_job(1, "u", 8, minutes(10)));
  EXPECT_EQ(tree.may_start(make_job(2, "u", 2, minutes(10)), QosClass{}, usage),
            std::nullopt);
  const auto reason = tree.may_start(make_job(3, "u", 4, minutes(10)), QosClass{},
                                     usage);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, "user-max-nodes");
}

TEST(AccountTreeTest, DivisionCapBindsWholeSubtree) {
  // A node cap on the division must hold jobs of *any* project under it,
  // even when the project itself is unconstrained.
  AccountTree tree;
  tree.add_account("div", "", 1.0, AccountLimits{.max_nodes = 10});
  tree.add_account("proj-a", "div");
  tree.add_account("proj-b", "div");
  tree.set_user("alice", "proj-a");
  tree.set_user("bob", "proj-b");
  LiveUsage usage;
  tree.add_usage(usage, make_job(1, "alice", 8, minutes(10), 0, "", "proj-a"));
  // Bob's project is empty, but the shared division has only 2 spare.
  const auto reason = tree.may_start(
      make_job(2, "bob", 4, minutes(10), 0, "", "proj-b"), QosClass{}, usage);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, "account-max-nodes");
  EXPECT_EQ(tree.may_start(make_job(3, "bob", 2, minutes(10), 0, "", "proj-b"),
                           QosClass{}, usage),
            std::nullopt);
}

TEST(AccountTreeTest, ExhaustedBudgetHoldsFurtherJobs) {
  AccountTree tree;
  tree.add_account("grant", "", 1.0, AccountLimits{.node_seconds_budget = 100.0});
  tree.set_user("u", "grant");
  const LiveUsage empty;
  const Job job = make_job(1, "u", 4, minutes(10), 0, "", "grant");
  EXPECT_EQ(tree.may_start(job, QosClass{}, empty), std::nullopt);
  tree.charge(job, 100.0, 0);
  EXPECT_DOUBLE_EQ(tree.charged_node_seconds("grant"), 100.0);
  const auto reason = tree.may_start(job, QosClass{}, empty);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, "account-budget");
  // Budgets do not decay: the hold persists arbitrarily far in the future.
  tree.charge(make_job(2, "u", 1, seconds(1), 0, "", "grant"), 1.0, days(30));
  EXPECT_DOUBLE_EQ(tree.charged_node_seconds("grant"), 101.0);
}

TEST(AccountTreeTest, ViolationsCountExceededEntries) {
  AccountTree tree;
  tree.set_user("u", "", 1.0, UserLimits{.max_running_jobs = 1});
  LiveUsage usage;
  tree.add_usage(usage, make_job(1, "u", 2, minutes(1)));
  EXPECT_EQ(tree.violations(usage), 0u);
  tree.add_usage(usage, make_job(2, "u", 2, minutes(1)));
  EXPECT_EQ(tree.violations(usage), 1u);
}

// --- account tree: fair tree ----------------------------------------------

TEST(AccountTreeTest, ChargeDecaysWithHalfLife) {
  AccountTree tree(days(1));
  tree.set_user("u", "proj");
  tree.charge(make_job(1, "u", 1, seconds(1), 0, "", "proj"), 1000.0, 0);
  EXPECT_DOUBLE_EQ(tree.decayed_usage("u", 0), 1000.0);
  EXPECT_NEAR(tree.decayed_usage("u", days(1)), 500.0, 1e-6);
  EXPECT_NEAR(tree.decayed_usage("u", days(2)), 250.0, 1e-6);
  EXPECT_DOUBLE_EQ(tree.decayed_usage("nobody", days(1)), 0.0);
}

TEST(AccountTreeTest, FairTreeDepressesHeavyProjectMembers) {
  // The upgrade over the flat tracker: alice's burn depresses her whole
  // project, so even an idle project-mate ranks below outside users.
  AccountTree tree(days(7));
  tree.add_account("hot");
  tree.add_account("cold");
  tree.set_user("alice", "hot");
  tree.set_user("mate", "hot");  // idle, but shares alice's account
  tree.set_user("bob", "cold");
  tree.charge(make_job(1, "alice", 64, hours(1), 0, "", "hot"), 1e6, 0);
  const auto factors = tree.fair_tree_factors(0);
  ASSERT_EQ(factors.size(), 3u);
  for (const auto& [user, f] : factors) {
    EXPECT_GT(f, 0.0) << user;
    EXPECT_LE(f, 1.0) << user;
  }
  EXPECT_GT(factors.at("bob"), factors.at("mate"));
  EXPECT_GT(factors.at("mate"), factors.at("alice"));
}

TEST(AccountTreeTest, FairTreeTiesBreakDeterministicallyByName) {
  AccountTree tree;
  tree.set_user("u1", "");
  tree.set_user("u3", "");
  tree.set_user("u2", "");
  const auto first = tree.fair_tree_factors(hours(1));
  const auto second = tree.fair_tree_factors(hours(1));
  EXPECT_EQ(first, second);
  // Equal shares, zero usage: rank order is name order.
  EXPECT_GT(first.at("u1"), first.at("u2"));
  EXPECT_GT(first.at("u2"), first.at("u3"));
}

TEST(AccountTreeTest, FairTreeFollowsTreeChangesAfterARead) {
  // The fair tree keeps its child lists between walks; every reshaping
  // call and every charge made after a read must show in the next read.
  AccountTree tree(days(7));
  tree.add_account("a");
  tree.add_account("light");
  tree.add_account("heavy");
  tree.set_user("alice", "a");
  tree.set_user("bob", "light");
  tree.set_user("carl", "heavy");
  tree.charge(make_job(1, "carl", 8, hours(1), 0, "", "heavy"), 1e6, 0);

  // Factors are rank / N: the i-th user of `order` gets (N - i) / N, so
  // they always form a permutation of {1/N, ..., N/N}.
  const auto expect_order = [&tree](const std::vector<std::string>& order) {
    const auto factors = tree.fair_tree_factors(0);
    ASSERT_EQ(factors.size(), order.size());
    const double n = static_cast<double>(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      EXPECT_DOUBLE_EQ(factors.at(order[i]), (n - static_cast<double>(i)) / n)
          << order[i];
  };

  // Idle "a" and "light" tie on shares and break by name; "heavy" is last.
  expect_order({"alice", "bob", "carl"});
  // Re-parent alice's account under the heavy one: she now ranks only
  // after the whole idle "light" subtree.
  tree.add_account("a", "heavy");
  expect_order({"bob", "alice", "carl"});
  // Move alice into "light": she and bob tie there and break by name.
  tree.set_user("alice", "light");
  expect_order({"alice", "bob", "carl"});
  // A user registered on sight joins the root level and wins the tie
  // with "light" by name; a second sighting changes nothing.
  tree.ensure_user("dave", "");
  tree.ensure_user("dave", "light");
  expect_order({"dave", "alice", "bob", "carl"});
  // Usage charged after a read is decayed afresh on the next one.
  tree.charge(make_job(2, "dave", 8, hours(1)), 1e7, 0);
  expect_order({"alice", "bob", "carl", "dave"});
  // A re-parent that would close a cycle is refused and changes nothing.
  EXPECT_THROW(tree.add_account("heavy", "a"), std::invalid_argument);
  expect_order({"alice", "bob", "carl", "dave"});
}

TEST(AccountTreeTest, WarmFactorsMatchColdRecompute) {
  // A long-lived tree re-ranks every level starting from its previous
  // walk's order; a tree given the same history and walked once must
  // give exactly the same factors.  Names are not in index order, a user
  // may share an account's name, and idle members tie on shares.  With a
  // one-hour half-life and charges spanning twelve orders of magnitude,
  // old usage falls under the 1e-9 usage-fraction floor, so members that
  // ranked apart come to tie: only the name tie-break orders them then.
  std::mt19937_64 rng(7);
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  const std::vector<std::string> names = {"kiwi", "fig", "apple", "date",
                                          "lime", "banana", "cherry", "elder"};
  std::vector<std::string> accounts = {""};
  const auto any_account = [&] { return accounts[pick(static_cast<int>(accounts.size()))]; };
  std::vector<std::function<void(AccountTree&)>> history;
  AccountTree warm(hours(1));
  SimTime now = 0;
  JobId next = 1;
  for (int step = 0; step < 600; ++step) {
    std::function<void(AccountTree&)> change;
    const int kind = pick(20);
    if (kind == 0) {
      const std::string name = "proj-" + names[pick(8)];
      const std::string parent = any_account();
      if (std::find(accounts.begin(), accounts.end(), name) != accounts.end())
        continue;  // only fresh accounts: a re-parent may close a cycle
      const double shares = 1.0 + pick(3);
      accounts.push_back(name);
      change = [=](AccountTree& tree) { tree.add_account(name, parent, shares); };
    } else if (kind <= 2) {
      const std::string user = pick(4) == 0 ? "proj-" + names[pick(8)] : names[pick(8)];
      const std::string account = any_account();
      const double shares = 1.0 + pick(2);
      if (pick(2) == 0)
        change = [=](AccountTree& tree) { tree.set_user(user, account, shares); };
      else
        change = [=](AccountTree& tree) { tree.ensure_user(user, account); };
    } else if (kind <= 13) {
      const Job job = make_job(next++, names[pick(8)], 1 + pick(16), hours(1), 0, "",
                               pick(3) == 0 ? any_account() : "");
      const double node_seconds = 3600.0 * std::pow(10.0, 4 * pick(4));
      const SimTime at = now;
      change = [=](AccountTree& tree) { tree.charge(job, node_seconds, at); };
    } else {
      now += minutes(1 + pick(600));
    }
    if (change) {
      change(warm);
      history.push_back(change);
    }
    std::vector<double> warm_factors;
    warm.fair_tree_factors(now, warm_factors);
    AccountTree cold(hours(1));
    for (const auto& replay : history) replay(cold);
    std::vector<double> cold_factors;
    cold.fair_tree_factors(now, cold_factors);
    ASSERT_EQ(warm_factors, cold_factors) << "step " << step;
  }
  EXPECT_GT(warm.user_count(), 4u);
}

TEST(AccountTreeTest, UnknownParentThrows) {
  AccountTree tree;
  EXPECT_THROW(tree.add_account("child", "missing-parent"), std::invalid_argument);
  EXPECT_THROW(AccountTree(0), std::invalid_argument);
}

// --- reservations ----------------------------------------------------------

TEST(ReservationTest, AddValidatesWindowAndCapacity) {
  ReservationCalendar calendar;
  EXPECT_THROW(
      calendar.add(Reservation{.name = "r", .start = 100, .end = 100, .nodes = 4}),
      std::invalid_argument);
  EXPECT_THROW(
      calendar.add(Reservation{.name = "r", .start = 0, .end = 100, .nodes = 0}),
      std::invalid_argument);
  calendar.add(Reservation{.name = "ok", .start = 0, .end = 100, .nodes = 4});
  EXPECT_EQ(calendar.size(), 1u);
}

TEST(ReservationTest, EmptyAllowListsAdmitNobody) {
  // All-empty population = maintenance window: even tagged jobs are out.
  Reservation maintenance{.name = "maint", .start = 0, .end = 100, .nodes = 8};
  EXPECT_FALSE(maintenance.allows(make_job(1, "root", 1, 1, 0, "high", "ops")));
}

TEST(ReservationTest, AllowsByAccountUserOrQos) {
  Reservation r{.name = "r", .start = 0, .end = 100, .nodes = 8};
  r.accounts = {"ops"};
  r.users = {"oncall"};
  r.qos = {"high"};
  EXPECT_TRUE(r.allows(make_job(1, "x", 1, 1, 0, "", "ops")));
  EXPECT_TRUE(r.allows(make_job(2, "oncall", 1, 1)));
  EXPECT_TRUE(r.allows(make_job(3, "x", 1, 1, 0, "high")));
  EXPECT_FALSE(r.allows(make_job(4, "x", 1, 1, 0, "low", "hpc")));
}

TEST(ReservationTest, CarveOutCountsOnlyOverlappingDisallowedWindows) {
  ReservationCalendar calendar;
  Reservation r{.name = "urgent", .start = seconds(100), .end = seconds(200),
                .nodes = 16};
  r.qos = {"high"};
  calendar.add(r);
  const Job outsider = make_job(1, "u", 8, seconds(50));
  const Job insider = make_job(2, "u", 8, seconds(50), 0, "high");
  // Window ends before the reservation starts: nothing carved.
  EXPECT_EQ(calendar.carve_out(outsider, 0, seconds(50)), 0);
  // Overlapping window of a disallowed job carves the full capacity.
  EXPECT_EQ(calendar.carve_out(outsider, 0, seconds(150)), 16);
  EXPECT_EQ(calendar.carve_out(outsider, seconds(150), seconds(160)), 16);
  // The allowed population is never carved against.
  EXPECT_EQ(calendar.carve_out(insider, 0, seconds(500)), 0);
}

TEST(ReservationTest, StackedWindowsCarveTheirConcurrentMaximum) {
  ReservationCalendar calendar;
  calendar.add(Reservation{.name = "a", .start = seconds(100), .end = seconds(300),
                           .nodes = 4});
  calendar.add(Reservation{.name = "b", .start = seconds(200), .end = seconds(400),
                           .nodes = 6});
  const Job job = make_job(1, "u", 1, seconds(1));
  EXPECT_EQ(calendar.carve_out(job, 0, seconds(150)), 4);    // only "a"
  EXPECT_EQ(calendar.carve_out(job, 0, seconds(500)), 10);   // both stack at 200
  EXPECT_EQ(calendar.carve_out(job, seconds(350), seconds(360)), 6);  // only "b"
}

// --- assembled scheduler ----------------------------------------------------

PolicyConfig flat_config() {
  // Priority reduced to the QoS boost alone: deterministic ordering tests.
  PolicyConfig config;
  config.enabled = true;
  config.weights.age_per_day = 0.0;
  config.weights.job_size = 0.0;
  config.weights.fairshare = 0.0;
  return config;
}

TEST(PolicySchedulerTest, QosBoostJumpsTheQueue) {
  JobPool pool;
  pool.submit(make_job(1, "a", 8, minutes(10), 0));
  pool.submit(make_job(2, "b", 8, minutes(10), seconds(1), "high"));
  Scheduler sched = make_scheduler("policy", 16, flat_config());
  const auto decisions = sched.schedule(pool, 8, seconds(2));
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front(), 2u);
}

TEST(PolicySchedulerTest, LimitHeldJobIsSkippedNotBlocking) {
  // A held job must not become the blocked head: in Slurm a limit-held
  // job gets no reservation and the queue flows around it.
  PolicyConfig config = flat_config();
  config.accounts.set_user("capped", "", 1.0, UserLimits{.max_running_jobs = 1});
  JobPool pool;
  Job running = make_job(1, "capped", 4, minutes(30));
  pool.submit(running);
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.submit(make_job(2, "capped", 4, minutes(10), 0));
  pool.submit(make_job(3, "other", 4, minutes(10), seconds(1)));
  Scheduler sched = make_scheduler("policy", 16, config);
  const auto decisions = sched.schedule(pool, 12, seconds(2));
  EXPECT_EQ(decisions, (std::vector<JobId>{3}));
  EXPECT_GE(sched.policy()->limit_holds(), 1u);
}

TEST(PolicySchedulerTest, DisabledEnforcementStartsEverything) {
  PolicyConfig config = flat_config();
  config.enforce_limits = false;
  config.accounts.set_user("capped", "", 1.0, UserLimits{.max_running_jobs = 1});
  JobPool pool;
  pool.submit(make_job(1, "capped", 4, minutes(10)));
  pool.submit(make_job(2, "capped", 4, minutes(10)));
  Scheduler sched = make_scheduler("policy", 16, config);
  EXPECT_EQ(sched.schedule(pool, 16, 0).size(), 2u);
  EXPECT_EQ(sched.policy()->limit_holds(), 0u);
}

TEST(PolicySchedulerTest, ReservationCarveBlocksOverlappingStart) {
  PolicyConfig config = flat_config();
  Reservation r{.name = "urgent", .start = seconds(100), .end = seconds(400),
                .nodes = 8};
  r.qos = {"high"};
  config.reservations.add(r);
  {
    // The outsider's kill window [0, 300+margin) crosses the reservation,
    // and 16 > 16 - 8: it may not start even though the machine is empty.
    JobPool pool;
    pool.submit(make_job(1, "u", 16, seconds(300)));
    Scheduler sched = make_scheduler("policy", 16, config);
    EXPECT_TRUE(sched.schedule(pool, 16, 0).empty());
    EXPECT_EQ(sched.policy()->reservation_carve_skips(), 1u);
  }
  {
    // The allowed population is not carved against.
    JobPool pool;
    pool.submit(make_job(2, "u", 16, seconds(300), 0, "high"));
    Scheduler sched = make_scheduler("policy", 16, config);
    EXPECT_EQ(sched.schedule(pool, 16, 0), (std::vector<JobId>{2}));
  }
  {
    // A short job whose window closes before the reservation opens fits.
    JobPool pool;
    pool.submit(make_job(3, "u", 16, seconds(10)));
    Scheduler sched = make_scheduler("policy", 16, config);
    EXPECT_EQ(sched.schedule(pool, 16, 0), (std::vector<JobId>{3}));
    EXPECT_EQ(sched.policy()->reservation_carve_skips(), 0u);
  }
}

struct PreemptFixture : ::testing::Test {
  JobPool pool;
  PolicyConfig config = flat_config();

  void SetUp() override {
    config.enable_preemption = true;
    config.preempt_wait = minutes(2);
  }

  /// Two 8-node low-QoS jobs fill a 16-node machine; the second started
  /// later (less sunk work -> the cheaper victim).
  void fill_machine_with_low() {
    pool.submit(make_job(1, "w1", 8, hours(2), 0, "low"));
    pool.submit(make_job(2, "w2", 8, hours(2), 0, "low"));
    pool.mark_starting(1);
    pool.mark_running(1, 0);
    pool.mark_starting(2);
    pool.mark_running(2, seconds(50));
  }
};

TEST_F(PreemptFixture, EvictsCheapestVictimForBlockedHighHead) {
  fill_machine_with_low();
  pool.submit(make_job(3, "vip", 8, minutes(10), 0, "high"));
  Scheduler sched = make_scheduler("policy", 16, config);
  const SimTime now = minutes(3);  // head has outwaited preempt_wait
  EXPECT_TRUE(sched.schedule(pool, 0, now).empty());
  const auto orders = sched.preemption_orders(pool, 0, now);
  ASSERT_EQ(orders.size(), 1u);  // one victim frees exactly enough
  EXPECT_EQ(orders[0].victim, 2u);  // youngest start = cheapest
  EXPECT_EQ(orders[0].mode, PreemptMode::Requeue);
  EXPECT_EQ(orders[0].grace, config.qos.resolve("low").grace_period);
  EXPECT_EQ(sched.policy()->preempt_orders_issued(), 1u);
}

TEST_F(PreemptFixture, PendingGraceWindowsAreNotDoubleOrdered) {
  fill_machine_with_low();
  pool.submit(make_job(3, "vip", 8, minutes(10), 0, "high"));
  Scheduler sched = make_scheduler("policy", 16, config);
  const SimTime now = minutes(3);
  sched.schedule(pool, 0, now);
  const JobId victim = sched.preemption_orders(pool, 0, now)[0].victim;
  sched.policy()->note_preemption_pending(victim);
  // The victim's nodes are incoming capacity; a second cycle must not
  // stack another eviction for the same head.
  sched.schedule(pool, 0, now + seconds(5));
  EXPECT_TRUE(sched.preemption_orders(pool, 0, now + seconds(5)).empty());
}

TEST_F(PreemptFixture, HeadMustOutwaitPreemptWait) {
  fill_machine_with_low();
  pool.submit(make_job(3, "vip", 8, minutes(10), seconds(30), "high"));
  Scheduler sched = make_scheduler("policy", 16, config);
  const SimTime now = seconds(60);  // waited 30 s < 2 min
  sched.schedule(pool, 0, now);
  EXPECT_TRUE(sched.preemption_orders(pool, 0, now).empty());
}

TEST_F(PreemptFixture, SparesEveryoneWhenEvictionCannotFreeEnough) {
  fill_machine_with_low();
  pool.submit(make_job(3, "vip", 32, minutes(10), 0, "high"));  // > machine
  Scheduler sched = make_scheduler("policy", 16, config);
  sched.schedule(pool, 0, minutes(5));
  EXPECT_TRUE(sched.preemption_orders(pool, 0, minutes(5)).empty());
  EXPECT_EQ(sched.policy()->preempt_orders_issued(), 0u);
}

TEST_F(PreemptFixture, NormalHeadNeverTriggersEvictions) {
  fill_machine_with_low();
  pool.submit(make_job(3, "user", 8, minutes(10), 0, "normal"));
  Scheduler sched = make_scheduler("policy", 16, config);
  sched.schedule(pool, 0, minutes(5));
  EXPECT_TRUE(sched.preemption_orders(pool, 0, minutes(5)).empty());
}

TEST(PolicySchedulerTest, AuditCountsLimitViolations) {
  PolicyConfig config = flat_config();
  config.accounts.set_user("u", "", 1.0, UserLimits{.max_running_jobs = 1});
  JobPool pool;
  for (JobId id = 1; id <= 2; ++id) {
    pool.submit(make_job(id, "u", 2, minutes(10)));
    pool.mark_starting(id);
    pool.mark_running(id, 0);
  }
  Scheduler sched = make_scheduler("policy", 16, config);
  sched.policy()->audit(pool);
  EXPECT_EQ(sched.policy()->limit_violations(), 1u);
}

TEST(PolicySchedulerTest, ReleaseAndPreemptChargeTheLedger) {
  Scheduler sched = make_scheduler("policy", 64, flat_config());
  Job done = make_job(1, "u", 4, minutes(10), 0, "", "proj");
  done.start_time = 0;
  done.end_time = minutes(10);
  done.state = JobState::Completed;
  sched.on_job_released(done, minutes(10));
  EXPECT_NEAR(sched.policy()->accounts().charged_node_seconds("proj"), 4.0 * 600.0, 1e-6);

  Job evicted = make_job(2, "u", 4, hours(1), 0, "low", "proj");
  evicted.start_time = minutes(10);
  sched.on_job_preempted(evicted, minutes(15));  // ran 5 of 60 minutes
  EXPECT_NEAR(sched.policy()->accounts().charged_node_seconds("proj"),
              4.0 * 600.0 + 4.0 * 300.0, 1e-6);
}

TEST(PolicyTest, LateAccountTagResolves) {
  // The tag names no account yet, so the job charges no account chain and
  // runs uncapped.  Once the account exists with a cap, the next pass must
  // find it: an unknown tag is never remembered as "no account".
  PolicyConfig config = flat_config();
  config.accounts.set_user("u", "home");
  JobPool pool;
  pool.submit(make_job(1, "u", 4, minutes(30), 0, "", "late"));
  pool.mark_starting(1);
  pool.mark_running(1, 0);
  pool.submit(make_job(2, "u", 4, minutes(10), seconds(1), "", "late"));
  Scheduler sched = make_scheduler("policy", 16, config);
  EXPECT_EQ(sched.schedule(pool, 12, seconds(2)), (std::vector<JobId>{2}));
  EXPECT_EQ(sched.policy()->limit_holds(), 0u);

  sched.policy()->accounts().add_account("late", "", 1.0, AccountLimits{.max_nodes = 6});
  EXPECT_TRUE(sched.schedule(pool, 12, seconds(3)).empty());
  EXPECT_EQ(sched.policy()->limit_holds(), 1u);
}

TEST(PolicyTest, OneSchedulerTwoPools) {
  // The pools key their users and QoS classes in opposite orders, so key 0
  // is alice (capped at one running job) in one and bob in the other, and
  // "" in one and "high" in the other.  A scheduler handed one pool after
  // the other must decide as a fresh scheduler does.
  PolicyConfig config = flat_config();
  config.accounts.set_user("alice", "", 1.0, UserLimits{.max_running_jobs = 1});
  const auto run = [](JobPool& pool, JobId id, const std::string& user,
                      const std::string& qos) {
    pool.submit(make_job(id, user, 4, minutes(30), 0, qos));
    pool.mark_starting(id);
    pool.mark_running(id, 0);
  };
  JobPool first;
  run(first, 1, "alice", "");
  first.submit(make_job(2, "bob", 4, minutes(10), seconds(10), "high"));
  first.submit(make_job(3, "alice", 4, minutes(10), seconds(20)));
  first.submit(make_job(4, "carl", 4, minutes(10), seconds(30)));
  JobPool second;
  run(second, 1, "bob", "high");
  run(second, 2, "alice", "");
  second.submit(make_job(3, "carl", 4, minutes(10), 0));
  second.submit(make_job(4, "bob", 4, minutes(10), seconds(5), "high"));
  second.submit(make_job(5, "alice", 4, minutes(10), seconds(1)));

  Scheduler shared = make_scheduler("policy", 32, config);
  for (JobPool* pool : {&first, &second, &first, &second}) {
    Scheduler fresh = make_scheduler("policy", 32, config);
    EXPECT_EQ(shared.schedule(*pool, 8, minutes(1)), fresh.schedule(*pool, 8, minutes(1)));
  }
  EXPECT_EQ(shared.schedule(second, 8, minutes(1)), (std::vector<JobId>{4, 3}));
}

}  // namespace
}  // namespace eslurm::sched::policy
