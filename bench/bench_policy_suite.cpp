// Scheduler policy-suite sweep: policy arms x QoS mixes under a
// contended workload (offered load ~1.15), reporting per-QoS-class wait
// and bounded slowdown plus the policy-layer invariant counters.
//
// Arms:
//   * fcfs            -- strict arrival order, no backfill (the floor);
//   * priority        -- multifactor priority + EASY backfill, no policy;
//   * policy-limits   -- "policy" preset: QoS boosts, fair tree, account
//                        limits, a qos=high advance reservation;
//   * policy-preempt  -- policy-limits plus requeue preemption for the
//                        high class.
//
// Headline invariants, checked by the bench (a failed check makes it
// exit 1):
//   * limit_violations == 0 wherever limits are enforced: live usage
//     never exceeds a configured cap;
//   * reservation_intrusions == 0: the carved window is never backfilled
//     across by jobs outside its allowed population;
//   * jobs_lost == 0: every submitted job stays accounted, in particular
//     every preempted-and-requeued job either reruns or is still queued;
//   * high-QoS p95 wait in the policy arms strictly improves on the
//     no-policy fcfs arm at the same mix;
//   * the preemption arm actually preempts.
#include <algorithm>

#include "bench_common.hpp"
#include "sched/policy/policy.hpp"

using namespace eslurm;

namespace {

struct Mix {
  std::string name;
  double high_frac = 0.0;
  double low_frac = 0.0;
};

struct Arm {
  std::string name;
  std::string scheduler;  ///< RmRuntimeConfig::scheduler
  bool limits = false;
  bool preempt = false;
};

struct ClassStats {
  double count = 0.0;
  double p95_wait_s = 0.0;
  double avg_wait_s = 0.0;
  double avg_bsld = 0.0;
};

struct Cell {
  const Arm* arm = nullptr;
  const Mix* mix = nullptr;

  double finished = 0.0;
  double utilization = 0.0;
  ClassStats high, normal, low;
  double limit_holds = 0.0;
  double limit_violations = 0.0;
  double carve_skips = 0.0;
  double reservation_intrusions = 0.0;
  double preempt_orders = 0.0;
  double preempt_requeues = 0.0;
  double preempt_cancels = 0.0;
  double preempted_finished = 0.0;  ///< requeued jobs that reran to completion
  double jobs_lost = 0.0;
};

/// The policy configuration shared by the policy arms: standard QoS
/// triple, the trace's account hierarchy with division node caps and
/// per-user caps on the high class, and one qos=high reservation window.
sched::policy::PolicyConfig policy_for(const Arm& arm,
                                       const trace::WorkloadProfile& profile,
                                       int nodes, SimTime duration) {
  sched::policy::PolicyConfig config;
  config.enabled = true;
  config.enforce_limits = arm.limits;
  config.enable_preemption = arm.preempt;
  config.preempt_mode = sched::policy::PreemptMode::Requeue;
  config.preempt_wait = seconds(60);

  // Keep the high class honest: the boost is paired with per-user caps,
  // so one user cannot monopolize the cluster through QoS alone.
  sched::policy::QosSet qos = sched::policy::QosSet::standard();
  sched::policy::QosSet tuned;
  for (const char* name : {"high", "normal", "low"}) {
    sched::policy::QosClass cls = qos.resolve(name);
    if (cls.name == "high") {
      cls.max_running_jobs_per_user = 4;
      cls.max_nodes_per_user = std::max(1, nodes / 2);
    }
    tuned.add(cls);
  }
  config.qos = std::move(tuned);

  // Account tree from the trace's tagging, with a node cap per division
  // (every project under a division shares it).
  for (const auto& [account, parent] : trace::account_hierarchy(profile)) {
    sched::policy::AccountLimits limits;
    if (account.rfind("div", 0) == 0) limits.max_nodes = (nodes * 3) / 4;
    config.accounts.add_account(account, parent, 1.0, limits);
  }

  // One advance reservation for the high class in the middle of the run:
  // a quarter of the machine for an eighth of the trace duration.
  sched::policy::Reservation window;
  window.name = "urgent";
  window.start = duration / 2;
  window.end = duration / 2 + duration / 8;
  window.nodes = std::max(1, nodes / 4);
  window.qos = {"high"};
  config.reservations.add(window);
  return config;
}

ClassStats class_stats(std::vector<double>& waits, std::vector<double>& bslds) {
  ClassStats stats;
  stats.count = static_cast<double>(waits.size());
  if (waits.empty()) return stats;
  double wait_sum = 0.0, bsld_sum = 0.0;
  for (const double w : waits) wait_sum += w;
  for (const double b : bslds) bsld_sum += b;
  stats.avg_wait_s = wait_sum / stats.count;
  stats.avg_bsld = bsld_sum / stats.count;
  std::sort(waits.begin(), waits.end());
  stats.p95_wait_s =
      waits[static_cast<std::size_t>(0.95 * (waits.size() - 1))];
  return stats;
}

void run_cell(bench::Harness& harness, Cell& cell, std::size_t nodes,
              SimTime duration, std::uint64_t seed,
              telemetry::Telemetry* telemetry) {
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.qos_high_frac = cell.mix->high_frac;
  profile.qos_low_frac = cell.mix->low_frac;
  profile.account_count = 8;
  profile.account_depth = 2;
  // Cap job width below every configured limit: a job wider than a cap
  // could never start (production Slurm rejects those at submit), and
  // a quarter of the machine keeps backfill meaningful.
  profile.max_nodes_per_job = static_cast<int>(nodes) / 4;

  // Contended: more work is offered than the machine can clear, so the
  // queue is never empty and policy ordering decides who waits.
  const auto jobs = bench::workload_for(nodes, duration, 1.15, profile, seed);

  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = nodes;
  config.satellite_count = 2;
  config.horizon = duration + hours(2);  // drain margin
  config.seed = seed;
  config.telemetry = telemetry;
  config.rm_config.scheduler = cell.arm->scheduler;
  if (cell.arm->scheduler == "policy" || cell.arm->scheduler == "priority")
    config.rm_config.policy =
        policy_for(*cell.arm, profile, static_cast<int>(nodes), duration);

  core::Experiment experiment(config);
  experiment.submit_trace(jobs);
  experiment.run();
  harness.record_events(experiment.engine().executed_events());

  const auto report = experiment.report();
  cell.finished = static_cast<double>(report.jobs_finished);
  cell.utilization = report.system_utilization;

  // Per-QoS-class wait / bounded slowdown.  A job's wait is known the
  // moment it (last) starts, so running jobs count too -- the long tail
  // of multi-hour jobs would otherwise never enter the sample.
  const sched::JobPool& pool = experiment.manager().pool();
  std::vector<double> waits[3], bslds[3];
  const double tau = 10.0;
  const auto record_class = [&](const sched::Job& job) {
    // Censoring: a job still queued at the horizon has waited at least
    // this long -- dropping it would flatter exactly the arms that
    // starve jobs (an arm that never starts the high class would
    // otherwise report a perfect high-class wait).
    const double wait =
        job.start_time >= 0
            ? to_seconds(job.start_time - job.submit_time)
            : to_seconds(config.horizon - job.submit_time);
    const double run = to_seconds(job.actual_runtime);
    const double bsld = std::max(1.0, (wait + run) / std::max(run, tau));
    const int cls = job.qos == "high" ? 0 : job.qos == "low" ? 2 : 1;
    waits[cls].push_back(wait);
    bslds[cls].push_back(bsld);
  };
  for (const sched::JobId id : pool.finished()) {
    const sched::Job& job = pool.get(id);
    if (job.state == sched::JobState::Cancelled) continue;
    record_class(job);
    if (job.preempt_count > 0) cell.preempted_finished += 1.0;
  }
  for (const sched::JobId id : pool.active()) record_class(pool.get(id));
  for (const sched::JobId id : pool.pending()) record_class(pool.get(id));
  cell.high = class_stats(waits[0], bslds[0]);
  cell.normal = class_stats(waits[1], bslds[1]);
  cell.low = class_stats(waits[2], bslds[2]);

  // Conservation: every job submitted inside the horizon must still be
  // accounted for in the pool -- including every preempted/requeued one.
  for (const auto& job : jobs) {
    if (job.submit_time >= config.horizon) continue;
    if (!pool.contains(job.id)) cell.jobs_lost += 1.0;
  }

  const rm::ResourceManager& manager = experiment.manager();
  cell.reservation_intrusions =
      static_cast<double>(manager.reservation_intrusions());
  cell.preempt_requeues = static_cast<double>(manager.preempt_requeues());
  cell.preempt_cancels = static_cast<double>(manager.preempt_cancels());
  if (const auto* policy = manager.policy()) {
    cell.limit_holds = static_cast<double>(policy->limit_holds());
    cell.limit_violations = static_cast<double>(policy->limit_violations());
    cell.carve_skips = static_cast<double>(policy->reservation_carve_skips());
    cell.preempt_orders = static_cast<double>(policy->preempt_orders_issued());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("policy_suite", "policy suite",
                         "QoS / limits / reservation / preemption arms x "
                         "QoS mixes: per-class wait and invariant counters",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 64 : 256;
  const SimTime duration = harness.smoke() ? hours(6) : hours(24);

  const std::vector<Arm> arms = {
      {"fcfs", "fcfs", false, false},
      {"priority", "priority", false, false},
      {"policy-limits", "policy", true, false},
      {"policy-preempt", "policy", true, true},
  };
  const std::vector<Mix> mixes = {
      {"mostly-normal", 0.10, 0.30},
      {"heavy-high", 0.25, 0.25},
  };

  std::vector<Cell> cells;
  for (const Arm& arm : arms)
    for (const Mix& mix : mixes) cells.push_back({&arm, &mix});

  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    // Same seed per mix across arms: every arm schedules the identical
    // tagged trace, so per-class deltas are pure policy effects.
    const std::uint64_t seed = derive_seed(
        0x90115, static_cast<std::uint64_t>(cells[i].mix - mixes.data()));
    run_cell(harness, cells[i], nodes, duration, seed, telemetry);
  });

  std::printf("\npolicy suite (%zu nodes, %.0f h trace + 2 h drain)\n", nodes,
              to_seconds(duration) / 3600.0);
  Table table({"arm", "mix", "done", "util", "hi p95 w(s)", "no p95 w(s)",
               "lo p95 w(s)", "hi bsld", "holds", "carve", "viol", "intr",
               "pre r/c", "lost"});
  const auto count = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  for (Cell& cell : cells) {
    table.add_row(
        {cell.arm->name, cell.mix->name, count(cell.finished),
         format_double(cell.utilization, 3), format_double(cell.high.p95_wait_s, 0),
         format_double(cell.normal.p95_wait_s, 0),
         format_double(cell.low.p95_wait_s, 0),
         format_double(cell.high.avg_bsld, 1), count(cell.limit_holds),
         count(cell.carve_skips), count(cell.limit_violations),
         count(cell.reservation_intrusions),
         count(cell.preempt_requeues) + "/" + count(cell.preempt_cancels),
         count(cell.jobs_lost)});
    harness.record_point(
        cell.arm->name + "/" + cell.mix->name,
        {{"arm", cell.arm->name},
         {"mix", cell.mix->name},
         {"qos_high_frac", format_double(cell.mix->high_frac, 2)},
         {"qos_low_frac", format_double(cell.mix->low_frac, 2)},
         {"nodes", std::to_string(nodes)},
         {"limits", cell.arm->limits ? "1" : "0"},
         {"preempt", cell.arm->preempt ? "1" : "0"}},
        {{"finished", cell.finished},
         {"utilization", cell.utilization},
         {"wait_p95_high_s", cell.high.p95_wait_s},
         {"wait_p95_normal_s", cell.normal.p95_wait_s},
         {"wait_p95_low_s", cell.low.p95_wait_s},
         {"wait_avg_high_s", cell.high.avg_wait_s},
         {"wait_avg_normal_s", cell.normal.avg_wait_s},
         {"wait_avg_low_s", cell.low.avg_wait_s},
         {"bsld_high", cell.high.avg_bsld},
         {"bsld_normal", cell.normal.avg_bsld},
         {"bsld_low", cell.low.avg_bsld},
         {"count_high", cell.high.count},
         {"count_normal", cell.normal.count},
         {"count_low", cell.low.count},
         {"limit_holds", cell.limit_holds},
         {"limit_violations", cell.limit_violations},
         {"reservation_carve_skips", cell.carve_skips},
         {"reservation_intrusions", cell.reservation_intrusions},
         {"preempt_orders", cell.preempt_orders},
         {"preempt_requeues", cell.preempt_requeues},
         {"preempt_cancels", cell.preempt_cancels},
         {"preempted_finished", cell.preempted_finished},
         {"jobs_lost", cell.jobs_lost}});
  }
  table.print();
  std::printf(
      "[every row must report viol = 0, intr = 0 and lost = 0; the policy "
      "arms must beat the fcfs arm's hi p95 wait at the same mix, and the "
      "preempt arm should show pre r > 0 with every requeued job accounted]\n");

  std::string violated, intruded, lost, slower;  // failing labels
  double preempted = 0.0;
  for (const Cell& cell : cells) {
    const std::string at = " " + cell.arm->name + "/" + cell.mix->name;
    if (cell.limit_violations != 0.0) violated += at;
    if (cell.reservation_intrusions != 0.0) intruded += at;
    if (cell.jobs_lost != 0.0) lost += at;
    if (cell.arm->name.rfind("policy", 0) == 0) {
      const Cell& fcfs = *std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
        return c.arm->name == "fcfs" && c.mix == cell.mix;
      });
      if (!(cell.high.p95_wait_s < fcfs.high.p95_wait_s)) slower += at;
    }
    if (cell.arm->preempt) preempted += cell.preempt_requeues;
  }
  harness.headline({"wait_p95_high_s", "wait_p95_normal_s", "wait_p95_low_s",
                    "bsld_high", "limit_violations", "reservation_intrusions",
                    "preempt_requeues", "jobs_lost"});
  harness.check("arms >= 3 and mixes >= 2", arms.size() >= 3 && mixes.size() >= 2,
                "too few arms or mixes to compare");
  harness.check("limit_violations == 0", violated.empty(),
                "limits exceeded at" + violated);
  harness.check("reservation_intrusions == 0", intruded.empty(),
                "reservation backfilled across at" + intruded);
  harness.check("jobs_lost == 0", lost.empty(), "jobs lost at" + lost);
  harness.check("policy arms beat fcfs on wait_p95_high_s", slower.empty(),
                "high-QoS p95 wait not below fcfs at" + slower);
  harness.check("preempt arm preempts", preempted > 0.0,
                "the preemption arm never preempted");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
