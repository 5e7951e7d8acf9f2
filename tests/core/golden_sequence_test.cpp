// Golden-sequence determinism: the event core may be rebuilt for speed,
// but never for order.  This test hashes the executed (time, seq) stream
// of a 512-node mixed RM/broadcast/chaos world and pins it to the value
// captured on the pre-pool engine (unordered_map handlers, per-event
// std::function allocation).  Any engine change that reorders even one
// event -- a different tie-break, a pool that recycles sequence numbers,
// a compaction that drops a live entry -- changes the hash.
//
// The stream is (execution time, scheduling sequence number) per event,
// folded with FNV-1a, plus the network's message/byte totals so the
// world's observable traffic is pinned along with the event order.  The
// sweep variant runs the identical world on two worker threads and
// expects the identical hash: event order must not depend on the thread
// the world runs on.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "trace/generator.hpp"

namespace eslurm::core {
namespace {

/// FNV-1a over the byte stream of the values fed in.
struct StreamHasher {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
};

/// The pinned scenario: ESLURM RM with two satellites on 512 compute
/// nodes, node failures, ambient chaos (drops + duplicates + delay
/// spikes) and a bursty workload -- every event source the repo has.
ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = 512;
  config.satellite_count = 2;
  config.horizon = hours(2);
  config.seed = 0xE5;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 150.0;
  config.rm_config.use_runtime_estimation = true;
  config.chaos.drop_prob = 0.01;
  config.chaos.duplicate_prob = 0.005;
  config.chaos.delay_spike_prob = 0.01;
  config.chaos.delay_spike_ms = 50.0;
  config.rm_config.use_reliable_transport = true;
  return config;
}

/// Policy-stage decision counts of one run (left zero for presets
/// without policy stages).
struct PolicyCounts {
  std::uint64_t limit_holds = 0;
  std::uint64_t carve_skips = 0;
  std::uint64_t preempt_orders = 0;
};

/// Runs the golden scenario and returns the stream hash.  `jobs_per_hour`
/// sets the load; `tag_qos` tags the jobs at multiples of 7 "high" and
/// the other multiples of 3 "low", so QoS boosts and preemption have work
/// to do.
std::uint64_t run_golden(const ExperimentConfig& config, double jobs_per_hour = 40,
                         bool tag_qos = false, PolicyCounts* counts = nullptr) {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.jobs_per_hour = jobs_per_hour;
  profile.max_nodes_per_job = 128;
  profile.seed = 0x60'1D;
  trace::TraceGenerator generator(profile);
  auto jobs = generator.generate(hours(1));
  if (tag_qos) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i % 7 == 0) jobs[i].qos = "high";
      else if (i % 3 == 0) jobs[i].qos = "low";
    }
  }

  StreamHasher hasher;
  Experiment experiment(config);
  experiment.engine().set_exec_observer(
      [](void* ctx, SimTime time, std::uint64_t seq) {
        auto* h = static_cast<StreamHasher*>(ctx);
        h->add(static_cast<std::uint64_t>(time));
        h->add(seq);
      },
      &hasher);
  experiment.submit_trace(jobs);
  experiment.run();
  hasher.add(experiment.engine().executed_events());
  hasher.add(experiment.network().total_messages());
  hasher.add(experiment.network().total_bytes());
  if (counts) {
    if (const auto* policy = experiment.manager().policy()) {
      counts->limit_holds = policy->limit_holds();
      counts->carve_skips = policy->reservation_carve_skips();
      counts->preempt_orders = policy->preempt_orders_issued();
    }
  }
  return hasher.hash;
}

/// Captured from the pre-refactor engine (unordered_map handlers,
/// std::function events) -- the optimized engine must reproduce it
/// bit-for-bit.  If an *intentional* event-order change ever lands,
/// re-capture this constant and explain the change in DESIGN.md.
constexpr std::uint64_t kGoldenHash = 0x2b50230f13b538f1ull;

TEST(GoldenSequence, MatchesPreRefactorEngine) {
  const std::uint64_t hash = run_golden(golden_config());
  printf("golden hash: 0x%016llx\n", static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, kGoldenHash);
}

TEST(GoldenSequence, HaDisabledIsInert) {
  // The HA subsystem (WAL, replication, standby heartbeats) must be
  // completely absent from the world when ha.enabled is false: no extra
  // events, no rng draws, no network traffic.  Explicitly disabling it --
  // even with every other HA knob turned to aggressive values -- must
  // reproduce the pinned pre-HA hash bit-for-bit.
  ExperimentConfig config = golden_config();
  config.rm_config.ha.enabled = false;
  config.rm_config.ha.snapshot_interval = seconds(30);
  config.rm_config.ha.group_commit_interval = milliseconds(5);
  config.rm_config.ha.standby_hb_interval = milliseconds(500);
  config.rm_config.ha.hb_miss_threshold = 1;
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

TEST(GoldenSequence, PolicyDisabledIsInert) {
  // The policy suite (QoS, account limits, reservations, preemption) must
  // run zero code unless its preset is chosen: every knob below is set
  // aggressively, but the scheduler string stays "easy", so no policy
  // stage is built and the pinned hash must reproduce bit-for-bit.
  // (enabled=false is incidental: only Experiment's config-text alias
  // reads it.)
  ExperimentConfig config = golden_config();
  config.rm_config.policy.enabled = false;
  config.rm_config.policy.enable_preemption = true;
  config.rm_config.policy.preempt_mode = sched::policy::PreemptMode::Cancel;
  config.rm_config.policy.preempt_wait = seconds(10);
  config.rm_config.policy.qos_weight = 100.0;
  config.rm_config.policy.accounts.set_user(
      "user1", "acct0", 1.0, sched::policy::UserLimits{.max_running_jobs = 1});
  config.rm_config.policy.reservations.add(sched::policy::Reservation{
      .name = "maint", .start = minutes(10), .end = hours(1), .nodes = 256});
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

TEST(GoldenSequence, RecoveryDisabledIsInert) {
  // The fault-tolerance subsystem (node-death retry machine, checkpoint
  // model, proactive drain, failure-aware placement) must run zero code
  // while disabled.  The golden world HAS node failures enabled, so this
  // pins the sharpest edge: with recovery off the RM must not register a
  // cluster observer, re-order the free list, or draw extra rng -- even
  // with every recovery knob turned to aggressive values.
  ExperimentConfig config = golden_config();
  config.rm_config.recovery.enabled = false;
  config.rm_config.recovery.max_retries = 100;
  config.rm_config.recovery.backoff_base = milliseconds(1);
  config.rm_config.recovery.checkpoint_interval = seconds(30);
  config.rm_config.recovery.checkpoint_cost = seconds(30);
  config.rm_config.recovery.proactive_drain = true;
  config.rm_config.recovery.fault_aware_placement = true;
  config.rm_config.recovery.placement_risk_weight = 100.0;
  EXPECT_EQ(run_golden(config), kGoldenHash);
}

// Per-preset decision pins.  At the golden load of 40 jobs/h the queue
// rarely blocks, so fcfs, easy and conservative all reproduce kGoldenHash
// and a broken backfill stage would go unnoticed.  At 400 jobs/h every
// preset makes different decisions and hashes differently.  Captured
// before the five scheduler classes became one pipeline; the pipeline
// must reproduce each preset bit-for-bit.
constexpr double kPresetLoad = 400;

std::uint64_t run_preset(const std::string& scheduler) {
  ExperimentConfig config = golden_config();
  config.rm_config.scheduler = scheduler;
  return run_golden(config, kPresetLoad);
}

TEST(GoldenSequence, PresetFcfs) {
  EXPECT_EQ(run_preset("fcfs"), 0x4ae734a4d0587c07ull);
}

TEST(GoldenSequence, PresetEasy) {
  EXPECT_EQ(run_preset("easy"), 0x333e801a4b1b4018ull);
}

TEST(GoldenSequence, PresetConservative) {
  EXPECT_EQ(run_preset("conservative"), 0x3f3708e31dce8622ull);
}

TEST(GoldenSequence, PresetPriority) {
  EXPECT_EQ(run_preset("priority"), 0xd51e31b1cab9ab19ull);
}

TEST(GoldenSequence, PresetPolicy) {
  // Every policy stage fires: a one-job cap on user1 holds its jobs, a
  // 256-node maintenance window carves capacity out of the backfill, and
  // QoS-tagged "high" jobs preempt "low" ones after a 10 s wait.
  ExperimentConfig config = golden_config();
  config.rm_config.scheduler = "policy";
  auto& policy = config.rm_config.policy;
  policy.enabled = true;
  policy.enable_preemption = true;
  policy.preempt_mode = sched::policy::PreemptMode::Requeue;
  policy.preempt_wait = seconds(10);
  policy.qos_weight = 100.0;
  policy.accounts.set_user("user1", "acct0", 1.0,
                           sched::policy::UserLimits{.max_running_jobs = 1});
  policy.reservations.add(sched::policy::Reservation{
      .name = "maint", .start = minutes(10), .end = hours(1), .nodes = 256});
  PolicyCounts counts;
  EXPECT_EQ(run_golden(config, kPresetLoad, /*tag_qos=*/true, &counts),
            0xe9e2007892f67ab1ull);
  EXPECT_EQ(counts.limit_holds, 265u);
  EXPECT_EQ(counts.carve_skips, 1471u);
  EXPECT_EQ(counts.preempt_orders, 28u);
}

TEST(GoldenSequence, RerunIsBitIdentical) {
  EXPECT_EQ(run_golden(golden_config()), run_golden(golden_config()));
}

TEST(GoldenSequence, IdenticalAcrossSweepThreads) {
  // Two identical points on two worker threads; derive_seed(seed, 0) is
  // replica 0's seed for both, so both worlds are the golden world (with
  // a derived seed) and must hash identically regardless of which thread
  // runs which point.
  SweepSpec spec;
  for (int i = 0; i < 2; ++i) {
    SweepPoint point;
    point.label = "golden-" + std::to_string(i);
    point.config = golden_config();
    spec.points.push_back(point);
  }
  spec.jobs = 2;
  spec.replicas = 1;
  const auto outcomes = run_sweep(spec, [](const SweepTask& task) -> MetricRow {
    const std::uint64_t hash = run_golden(task.config);
    return {{"hash_hi", static_cast<double>(hash >> 32)},
            {"hash_lo", static_cast<double>(hash & 0xFFFFFFFFull)}};
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].replicas[0], outcomes[1].replicas[0]);
}

}  // namespace
}  // namespace eslurm::core
