// eslurm_perfbench: builds and runs one benchmark world and prints one
// JSON object on stdout with its end-to-end numbers, its correctness
// checks and, with --traced, its per-layer numbers.  run.py drives it.
//
//   eslurm_perfbench --workload ctl100k --seed 1 [--setup-reps 3] [--traced]
//
// Everything here is measured from outside the simulator: the benchmark
// times its own calls into the public API (trace generation, the
// Experiment constructor, submit_trace, run, report) and reads the
// counters the modules already publish.  --traced enables the world's
// telemetry context and an Engine exec observer; the probes it adds run
// only after the world's digest has been taken.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad usage, 3 on a build with assertions enabled (without NDEBUG the
// FP-Tree cross-checks every incremental update against a full rebuild,
// so its timings would measure the check).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "probes.hpp"
#include "rm/ha_master.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

using namespace eslurm;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// --- FNV-1a 64 over fixed-width integers --------------------------------
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Event-sequence hash fed by Engine::set_exec_observer.
struct SeqHash {
  std::uint64_t hash = kFnvOffset;
  std::uint64_t events = 0;
  static void observe(void* ctx, SimTime time, std::uint64_t seq) {
    auto* self = static_cast<SeqHash*>(ctx);
    self->hash = fnv_mix(fnv_mix(self->hash, static_cast<std::uint64_t>(time)), seq);
    ++self->events;
  }
};

/// Every job id the pool tracks, from its four state lists.
std::vector<sched::JobId> listed_jobs(const sched::JobPool& pool) {
  std::vector<sched::JobId> ids(pool.pending().begin(), pool.pending().end());
  ids.insert(ids.end(), pool.active().begin(), pool.active().end());
  ids.insert(ids.end(), pool.finished().begin(), pool.finished().end());
  ids.insert(ids.end(), pool.held().begin(), pool.held().end());
  return ids;
}

/// Digest of the modelled outputs: the job table (id, start, end, state)
/// in id order, then executed events, network messages and bytes.
std::uint64_t world_digest(core::Experiment& experiment) {
  const sched::JobPool& pool = experiment.manager().pool();
  std::vector<sched::JobId> ids = listed_jobs(pool);
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = kFnvOffset;
  for (const sched::JobId id : ids) {
    const sched::Job& job = pool.get(id);
    h = fnv_mix(h, id);
    h = fnv_mix(h, static_cast<std::uint64_t>(job.start_time));
    h = fnv_mix(h, static_cast<std::uint64_t>(job.end_time));
    h = fnv_mix(h, static_cast<std::uint64_t>(job.state));
  }
  h = fnv_mix(h, experiment.engine().executed_events());
  h = fnv_mix(h, experiment.network().total_messages());
  return fnv_mix(h, experiment.network().total_bytes());
}

/// Job conservation: every job submitted inside the horizon is in the
/// pool, each pool job sits in exactly one state list, and the list
/// agrees with the job's state.
bool jobs_conserved(core::Experiment& experiment, const std::vector<sched::Job>& trace) {
  const sched::JobPool& pool = experiment.manager().pool();
  std::size_t submitted = 0;
  for (const sched::Job& job : trace) {
    if (job.submit_time >= experiment.config().horizon) continue;
    ++submitted;
    if (!pool.contains(job.id)) return false;
  }
  const std::vector<sched::JobId> ids = listed_jobs(pool);
  if (ids.size() != pool.total_jobs() || ids.size() != submitted) return false;
  if (std::set<sched::JobId>(ids.begin(), ids.end()).size() != ids.size()) return false;
  const auto all_in_state = [&](const auto& list, auto ok) {
    return std::all_of(list.begin(), list.end(),
                       [&](sched::JobId id) { return ok(pool.get(id)); });
  };
  const auto pending = [](const sched::Job& j) { return j.state == sched::JobState::Pending; };
  return all_in_state(pool.pending(), pending) && all_in_state(pool.held(), pending) &&
         all_in_state(pool.active(), [&](const sched::Job& j) { return !pending(j); }) &&
         all_in_state(pool.finished(), [](const sched::Job& j) { return j.finished(); });
}

/// Sum of a counter family (`name` and every `name{labels}` instrument).
double counter_sum(const telemetry::Registry& registry, const std::string& name) {
  double sum = 0.0;
  for (const auto& [key, counter] : registry.counters())
    if (key == name || key.rfind(name + "{", 0) == 0) sum += counter.value();
  return sum;
}

double histogram_sum(const telemetry::Registry& registry, const std::string& name) {
  double sum = 0.0;
  for (const auto& [key, histogram] : registry.histograms())
    if (key == name || key.rfind(name + "{", 0) == 0) sum += histogram.sum();
  return sum;
}

/// Flat JSON object writer (numbers at full precision).
class JsonObject {
 public:
  void number(const std::string& key, double value) {
    char buf[40];
    if (std::isfinite(value))
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    else
      std::snprintf(buf, sizeof(buf), "null");
    raw(key, buf);
  }
  void string(const std::string& key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  void boolean(const std::string& key, bool value) { raw(key, value ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int setup_reps = 1;
  bool traced = false;
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--setup-reps" && has_value) {
      options.setup_reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--traced") {
      options.traced = true;
    } else {
      return false;
    }
  }
  return perfbench::known_workload(options.workload);
}

/// Per-layer numbers of a finished traced world, then the probes.
JsonObject layer_metrics(core::Experiment& experiment, const telemetry::Registry& reg,
                         double run_s) {
  JsonObject layers;
  sim::Engine& engine = experiment.engine();
  net::Network& network = experiment.network();
  rm::ResourceManager& manager = experiment.manager();

  const double events = static_cast<double>(engine.executed_events());
  layers.number("sim.events", events);
  layers.number("sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0);
  layers.number("sim.queue_compactions", static_cast<double>(engine.compactions()));
  layers.number("sim.heap_fallbacks", static_cast<double>(engine.heap_fallback_events()));
  layers.number("sim.pool_capacity", static_cast<double>(engine.event_pool_capacity()));

  layers.number("net.messages", static_cast<double>(network.total_messages()));
  layers.number("net.bytes", static_cast<double>(network.total_bytes()));
  layers.number("net.failed_sends", static_cast<double>(network.failed_sends()));
  layers.number("net.send_op_capacity", static_cast<double>(network.send_op_pool_capacity()));
  const double sends = counter_sum(reg, "transport.sends");
  const double retransmits = counter_sum(reg, "transport.retransmits");
  layers.number("net.transport_sends", sends);
  layers.number("net.transport_retransmits", retransmits);
  layers.number("net.transport_dup_suppressed", counter_sum(reg, "transport.duplicates_suppressed"));
  layers.number("net.transport_perm_failures", counter_sum(reg, "transport.permanent_failures"));
  layers.number("net.transport_useful_ratio",
                sends > 0 ? sends / (sends + retransmits) : 1.0);
  const net::ChaosInjector* chaos = experiment.chaos();
  layers.number("net.chaos_dropped", chaos ? static_cast<double>(chaos->dropped()) : 0.0);
  layers.number("net.chaos_duplicated", chaos ? static_cast<double>(chaos->duplicated()) : 0.0);

  const double rebuilds = counter_sum(reg, "comm.fp_rebuilds");
  const double served = counter_sum(reg, "comm.fp_cache_served");
  layers.number("comm.broadcasts", counter_sum(reg, "comm.broadcasts"));
  layers.number("comm.fp_rebuilds", rebuilds);
  layers.number("comm.fp_cache_served", served);
  layers.number("comm.fp_cache_hit_ratio",
                rebuilds + served > 0 ? served / (rebuilds + served) : 0.0);
  layers.number("comm.fp_prepare_ms", histogram_sum(reg, "comm.fp_rebuild_ms"));
  layers.number("comm.repairs", counter_sum(reg, "comm.repairs"));
  layers.number("comm.unreachable", counter_sum(reg, "comm.unreachable"));
  layers.number("comm.send_retries", counter_sum(reg, "comm.send_retries"));

  layers.number("rm.dispatches", counter_sum(reg, "rm.dispatches"));
  layers.number("rm.heartbeats_sent", counter_sum(reg, "rm.heartbeats_sent"));
  layers.number("rm.subtask_reallocations", counter_sum(reg, "rm.subtask_reallocations"));
  layers.number("rm.jobs_started", counter_sum(reg, "rm.jobs_started"));
  layers.number("rm.launch_requeues", static_cast<double>(manager.launch_requeues()));
  layers.number("rm.recovery_retries", static_cast<double>(manager.recovery_stats().retries));

  const sched::JobPool& pool = manager.pool();
  layers.number("sched.cycles", counter_sum(reg, "sched.cycles"));
  layers.number("sched.backfill_decisions", counter_sum(reg, "sched.backfill_decisions"));
  layers.number("sched.pending_at_end", static_cast<double>(pool.pending().size()));

  predict::RuntimeEstimator* estimator = manager.estimator();
  layers.number("predict.retrains",
                estimator ? static_cast<double>(estimator->retrain_count()) : 0.0);
  layers.number("predict.retrain_ms", histogram_sum(reg, "predict.retrain_ms"));

  layers.number("cluster.failures_injected",
                static_cast<double>(experiment.failures().injected_failures()));
  layers.number("cluster.nodes_repaired", counter_sum(reg, "cluster.nodes_repaired"));

  const rm::HaMaster* ha = manager.ha();
  layers.number("ha.wal_records", ha ? static_cast<double>(ha->wal().appended_records()) : 0.0);
  layers.number("ha.wal_batches", ha ? static_cast<double>(ha->wal().batches_committed()) : 0.0);
  layers.number("ha.replication_batches",
                ha ? static_cast<double>(ha->replicator().batches_acked()) : 0.0);
  layers.number("ha.snapshots", ha ? static_cast<double>(ha->snapshots_taken()) : 0.0);
  layers.number("ha.promotions", ha ? static_cast<double>(ha->promotions()) : 0.0);
  layers.number("ha.takeover_ms", ha ? to_millis(ha->last_takeover()) : 0.0);

  // Probes: these mutate scheduler/estimator state, so they come last.
  layers.number("sim.churn_ns", perfbench::probe_churn_ns());
  const double bcast = perfbench::probe_bcast_us(true);
  const double bcast_raw = perfbench::probe_bcast_us(false);
  layers.number("comm.bcast_us", bcast);
  layers.number("comm.bcast_raw_us", bcast_raw);
  layers.number("net.transport_bcast_overhead_us", bcast - bcast_raw);
  const SimTime now = engine.now();
  layers.number("sched.pass_us", perfbench::probe_sched_pass_us(
                                     manager.scheduler(), pool, manager.free_nodes(), now));
  sched::EasyBackfillScheduler easy;
  layers.number("sched.easy_pass_us",
                perfbench::probe_sched_pass_us(easy, pool, manager.free_nodes(), now));
  layers.number("predict.retrain_probe_ms",
                estimator ? perfbench::probe_retrain_ms(*estimator) : 0.0);
  layers.number("predict.estimate_us",
                estimator ? perfbench::probe_estimate_us(*estimator, pool) : 0.0);
  return layers;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: eslurm_perfbench --workload ctl100k|sched_backlog|faults16k "
                 "[--seed N] [--setup-reps K] [--traced]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "eslurm_perfbench: refusing to report from a build with assertions "
               "enabled (build type '%s', flags '%s'); build with -DNDEBUG\n",
               PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  return 3;
#endif

  // Set up `setup_reps` times; every world but the last is torn down
  // unrun, so set-up time is a median while the run is measured once.
  telemetry::Telemetry telemetry;
  std::vector<sched::Job> jobs;
  std::unique_ptr<core::Experiment> experiment;
  std::vector<double> setup_s;
  double trace_gen_s = 0, build_s = 0, submit_s = 0, build_rss_mb = 0, cpu_start = 0;
  Clock::time_point wall_start;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    experiment.reset();
    jobs.clear();
    telemetry.reset();
    if (options.traced) telemetry.enable(1u << 16);
    cpu_start = cpu_seconds();
    wall_start = Clock::now();
    jobs = perfbench::make_trace(options.workload, options.seed);
    const auto t_trace = Clock::now();
    core::ExperimentConfig config = perfbench::make_config(options.workload, options.seed);
    config.telemetry = telemetry.if_enabled();
    experiment = std::make_unique<core::Experiment>(std::move(config));
    const auto t_build = Clock::now();
    build_rss_mb = current_rss_mb();
    experiment->submit_trace(jobs);
    const auto t_submit = Clock::now();
    trace_gen_s = seconds_between(wall_start, t_trace);
    build_s = seconds_between(t_trace, t_build);
    submit_s = seconds_between(t_build, t_submit);
    setup_s.push_back(seconds_between(wall_start, t_submit));
  }

  SeqHash seq;
  if (options.traced) experiment->engine().set_exec_observer(&SeqHash::observe, &seq);
  const auto t_run = Clock::now();
  experiment->run();
  const auto t_report = Clock::now();
  const sched::SchedulingReport report = experiment->report();
  const auto t_end = Clock::now();
  const double cpu_s = cpu_seconds() - cpu_start;
  const double run_s = seconds_between(t_run, t_report);
  const double events = static_cast<double>(experiment->engine().executed_events());
  rm::ResourceManager& manager = experiment->manager();

  const std::uint64_t digest = world_digest(*experiment);
  JsonObject checks;
  bool all_ok = true;
  const auto check = [&](const char* name, bool ok) {
    checks.boolean(name, ok);
    all_ok = all_ok && ok;
  };
  check("job_conservation", jobs_conserved(*experiment, jobs));
  check("report_consistent", report.jobs_finished <= manager.pool().finished().size() &&
                                 report.system_utilization > 0.0 &&
                                 report.system_utilization <= 1.0);
  if (options.traced) check("event_sequence_complete", seq.events == events);

  JsonObject out;
  out.string("workload", options.workload);
  out.number("seed", static_cast<double>(options.seed));
  out.string("build_type", PERFBENCH_BUILD_TYPE);
  out.string("cxx_flags", PERFBENCH_CXX_FLAGS);
  out.boolean("traced", options.traced);
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", setup_s[i]);
    setups += buf;
  }
  out.raw("setup_s", setups + "]");
  out.number("wall_s", seconds_between(wall_start, t_end));
  out.number("run_s", run_s);
  out.number("cpu_s", cpu_s);
  out.number("events_per_s", events / run_s);
  out.number("peak_rss_mb", peak_rss_mb());
  out.number("sim_utilization", report.system_utilization);
  out.number("sim_avg_wait_s", report.avg_wait_seconds);
  out.number("sim_avg_bsld", report.avg_bounded_slowdown);
  out.number("sim_launch_bcast_ms", manager.launch_broadcast_seconds().mean() * 1e3);
  out.number("sim_master_cpu_min", manager.master_stats().cpu_seconds() / 60.0);
  out.number("sim_jobs_finished", static_cast<double>(report.jobs_finished));
  out.number("sim_jobs_failed", static_cast<double>(report.jobs_failed));
  out.string("digest", hex(digest));
  if (options.traced) {
    out.string("event_seq_hash", hex(seq.hash));
    JsonObject layers = layer_metrics(*experiment, telemetry.metrics, run_s);
    layers.number("core.trace_gen_s", trace_gen_s);
    layers.number("core.build_s", build_s);
    layers.number("core.submit_s", submit_s);
    layers.number("core.run_s", run_s);
    layers.number("core.report_s", seconds_between(t_report, t_end));
    layers.number("core.build_rss_mb", build_rss_mb);
    out.raw("layers", layers.str());
  }
  out.raw("checks", checks.str());
  std::printf("%s\n", out.str().c_str());
  return all_ok ? 0 : 1;
}
