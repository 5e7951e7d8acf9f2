// Scheduler ablation: the policies the RM layer can run (FCFS, EASY
// backfill, conservative backfill, priority+fairshare backfill) and the
// effect of estimate quality on EASY -- the mechanism behind the paper's
// utilization gains from runtime estimation (Section VII-D).
//
// Uses a pure scheduling replay (no network) so all variants run in
// milliseconds on identical workloads.
#include <queue>

#include "bench_common.hpp"
#include "sched/scheduler.hpp"

using namespace eslurm;

namespace {

enum class EstimateSource { User, Perfect, DoubleActual };

sched::SchedulingReport replay(const std::vector<sched::Job>& jobs, int nodes,
                               sched::Scheduler& scheduler, SimTime horizon,
                               EstimateSource estimates) {
  sched::JobPool pool;
  int free_nodes = nodes;

  struct Completion {
    SimTime at;
    sched::JobId id;
    bool operator>(const Completion& other) const { return at > other.at; }
  };
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions;
  std::size_t next_submit = 0;

  auto run_cycle = [&](SimTime now) {
    for (const sched::JobId id : scheduler.schedule(pool, free_nodes, now)) {
      sched::Job& job = pool.get(id);
      pool.mark_starting(id);
      pool.mark_running(id, now);
      free_nodes -= job.nodes;
      const SimTime limit = job.user_estimate > 0
                                ? std::max(job.user_estimate, job.estimate_used)
                                : job.estimate_used;
      const SimTime run_for = std::min(job.actual_runtime, limit);
      completions.push(Completion{now + run_for, id});
    }
  };

  SimTime now = 0;
  while (now < horizon &&
         (next_submit < jobs.size() || !completions.empty())) {
    // Next event: a submission or a completion.
    const SimTime next_sub =
        next_submit < jobs.size() ? jobs[next_submit].submit_time : kTimeNever;
    const SimTime next_done = completions.empty() ? kTimeNever : completions.top().at;
    now = std::min(next_sub, next_done);
    if (now >= horizon) break;

    while (next_submit < jobs.size() && jobs[next_submit].submit_time <= now) {
      sched::Job job = jobs[next_submit++];
      switch (estimates) {
        case EstimateSource::User: job.estimate_used = job.user_estimate; break;
        case EstimateSource::Perfect: job.estimate_used = job.actual_runtime; break;
        case EstimateSource::DoubleActual:
          job.estimate_used = job.actual_runtime * 2;
          break;
      }
      pool.submit(std::move(job));
    }
    while (!completions.empty() && completions.top().at <= now) {
      const sched::JobId id = completions.top().id;
      completions.pop();
      sched::Job& job = pool.get(id);
      // Ended before its full runtime -> it was killed at its limit.
      const bool timed_out = now - job.start_time < job.actual_runtime;
      pool.mark_finished(id, now,
                         timed_out ? sched::JobState::TimedOut
                                   : sched::JobState::Completed);
      pool.mark_released(id, now);
      free_nodes += job.nodes;
      scheduler.on_job_released(pool.get(id), now);
    }
    run_cycle(now);
  }
  return sched::compute_report(pool, nodes, 0, horizon);
}

struct Variant {
  const char* policy;
  const char* preset;  ///< sched::make_scheduler name
  const char* estimates_label;
  EstimateSource estimates;
  sched::SchedulingReport report;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("ablation_sched", "Ablation",
                         "scheduling policies and estimate quality (1024 nodes)",
                         bench::Uses{.jobs = true}, argc, argv);
  const SimTime horizon = harness.smoke() ? hours(24) : hours(72);
  const auto jobs =
      bench::workload_for(1024, horizon, 0.95, trace::tianhe2a_profile(), 77);
  std::printf("workload: %zu jobs over %.0f h\n\n", jobs.size(),
              to_seconds(horizon) / 3600.0);

  std::vector<Variant> variants{
      {"FCFS", "fcfs", "user", EstimateSource::User, {}},
      {"EASY backfill", "easy", "user", EstimateSource::User, {}},
      {"EASY backfill", "easy", "2x actual", EstimateSource::DoubleActual, {}},
      {"EASY backfill", "easy", "perfect", EstimateSource::Perfect, {}},
      {"conservative backfill", "conservative", "user", EstimateSource::User, {}},
      {"priority backfill", "priority", "user", EstimateSource::User, {}}};

  core::parallel_for(variants.size(), harness.jobs(), [&](std::size_t i) {
    Variant& v = variants[i];
    sched::Scheduler scheduler = sched::make_scheduler(v.preset, 1024);
    v.report = replay(jobs, 1024, scheduler, horizon, v.estimates);
  });

  Table table({"policy", "estimates", "utilization %", "avg wait (s)",
               "avg bounded slowdown"});
  for (const Variant& v : variants) {
    table.add_row({v.policy, v.estimates_label,
                   format_double(100 * v.report.system_utilization, 4),
                   format_double(v.report.avg_wait_seconds, 4),
                   format_double(v.report.avg_bounded_slowdown, 4)});
    harness.record_point(std::string(v.policy) + "/" + v.estimates_label,
                         {{"policy", v.policy}, {"estimates", v.estimates_label}},
                         {{"system_utilization", v.report.system_utilization},
                          {"avg_wait_seconds", v.report.avg_wait_seconds},
                          {"avg_bounded_slowdown", v.report.avg_bounded_slowdown},
                          {"jobs_finished",
                           static_cast<double>(v.report.jobs_finished)}});
  }
  table.print();
  std::printf("\n[expected: backfill >> FCFS; better estimates tighten waits; the\n"
              " estimate-quality gap is the channel ESLURM's estimator exploits]\n");
  return harness.finish();
}
