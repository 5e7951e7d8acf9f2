// Shared scenario-runner for the benchmark harnesses.  Every bench
// regenerates one table or figure of the paper's evaluation (see
// DESIGN.md for the experiment index) and prints paper-style rows;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// All harnesses accept the same flags, parsed by bench::Harness:
//   --smoke              reduced sweep for CI (small cluster, few points)
//   --jobs N             run sweep points/replicas on N worker threads
//   --replicas N         seed replicas per sweep point (mean +/- stddev)
//   --json OUT           write a BENCH_<name>.json artifact; OUT is the
//                        file path (when it ends in .json) or a directory
//   --telemetry-out PATH telemetry artifact: the file PATH for a bench that
//                        runs one world at a time, or PATH/<label>.trace.json
//                        per point for a sweep bench (sweep_spec())
// An unknown flag, a missing value or a count that is not a positive
// integer prints a usage line and exits 2.  So does a flag the bench has
// no use for: each bench declares when it builds its Harness whether it
// runs parallel work (else --jobs N > 1 is rejected) and whether it
// attaches telemetry to its worlds (else --telemetry-out is rejected).
//
// A bench checks its own claims: harness.check(name, ok, detail) prints
// the verdict next to the `[paper: ...]` line it guards, and main() ends
// in `return harness.finish();`, which writes the artifacts and exits 1
// if any check failed or any requested artifact could not be written.
//
// The BENCH JSON schema ("eslurm-bench-v2"):
//   { "schema": "eslurm-bench-v2", "bench": "<name>", "smoke": bool,
//     "jobs": N, "replicas": N,
//     "wall_seconds": s, "total_events": N,
//     "events_per_sec": N|null, "peak_rss_bytes": N,
//     "headline": ["metric", ...],
//     "checks": [ {"name": "...", "ok": bool, "detail": "..."} ],
//     "points": [ { "label": "...", "params": {"k": "v", ...},
//                   "metrics": {"m": {"mean","stddev","min","max","n"}},
//                   "replicas": [ {"m": value, ...}, ... ] } ] }
// Per-replica raw values make cross-run bit-identity checkable with a
// plain diff; aggregate stats feed the perf-trajectory tooling.
// `headline` names the metrics tools/esprof tabulates per point, and
// `checks` carries the verdicts; esprof exits 1 on a failed one.
//
// v2 (PR 5) adds the run-level performance envelope: every bench that
// drives sim::Engine worlds calls record_events() with each world's
// executed-event count (thread-safe; sweeps run on worker threads), and
// the artifact reports simulated events per wall-clock second plus the
// process's peak RSS -- the two axes the zero-allocation event core is
// measured on.  Such a bench also checks `simulated_events`
// (total_events() > 0), so a bench that stops recording its worlds
// fails.  `events_per_sec` is null for benches with no simulated
// events (pure ML / trace-statistics benches).  `tools/esprof` diffs
// these fields across artifacts.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/generator.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace eslurm::bench {

/// Banner printed by every harness.  Also switches stdout to line
/// buffering so long runs show progress when redirected to a file.
inline void banner(const std::string& id, const std::string& what) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

/// The shared flag set, as parsed from the command line.
struct Flags {
  bool smoke = false;
  int jobs = 1;
  int replicas = 1;
  std::string json_out;
  std::string telemetry_out;
};

/// What a bench does with the flags that not every bench can honour,
/// declared when it builds its Harness.
struct Uses {
  bool jobs = false;       ///< runs sweep points or replicas on --jobs workers
  bool telemetry = false;  ///< attaches --telemetry-out to its worlds
};

/// Parses the shared flags.  Returns nullopt and sets `error` on an
/// unknown flag, a missing value, or a --jobs/--replicas value that is
/// not a positive integer.
inline std::optional<Flags> parse_flags(int argc, char** argv, std::string& error) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    }
    std::string* text = arg == "--json"            ? &flags.json_out
                        : arg == "--telemetry-out" ? &flags.telemetry_out
                                                   : nullptr;
    int* count = arg == "--jobs"       ? &flags.jobs
                 : arg == "--replicas" ? &flags.replicas
                                       : nullptr;
    if (!text && !count) {
      error = "unknown argument '" + arg + "'";
      return std::nullopt;
    }
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    if (value.empty() || value.rfind("--", 0) == 0) {
      error = arg + " requires a value";
      return std::nullopt;
    }
    ++i;
    if (text) {
      *text = value;
      continue;
    }
    const char* end = value.data() + value.size();
    const auto [stop, ec] = std::from_chars(value.data(), end, *count);
    if (ec != std::errc() || stop != end || *count < 1) {
      error = arg + " needs a positive integer, got '" + value + "'";
      return std::nullopt;
    }
  }
  return flags;
}

namespace detail {

/// Round-trip double formatting; non-finite values become null (JSON has
/// no NaN/Inf).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak resident-set size of this process, in bytes (0 when the platform
/// has no getrusage).  ru_maxrss is KiB on Linux, bytes on macOS.
inline std::uint64_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#elif defined(__unix__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

}  // namespace detail

/// Flag parsing, claim checks and result recording for a bench harness.
/// Construct at the top of main(), record every sweep point (or whole
/// run_sweep outcome), check the claims the bench reproduces, and end
/// main() with `return harness.finish();`.
class Harness {
 public:
  /// Parses the flags, and exits 2 on a usage error -- including a flag
  /// `uses` says this bench cannot honour -- before the bench runs.
  Harness(std::string name, const std::string& paper_id, const std::string& what, Uses uses,
          int argc, char** argv)
      : name_(std::move(name)) {
    std::string error;
    const auto flags = parse_flags(argc, argv, error);
    if (!flags) usage_error(error);
    if (flags->jobs > 1 && !uses.jobs) usage_error("--jobs: this bench runs no parallel work");
    if (!flags->telemetry_out.empty() && !uses.telemetry)
      usage_error("--telemetry-out: this bench attaches telemetry to no world");
    flags_ = *flags;
    banner(paper_id, what);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const std::string& name() const { return name_; }
  bool smoke() const { return flags_.smoke; }
  int jobs() const { return flags_.jobs; }
  int replicas() const { return flags_.replicas; }

  /// The telemetry context for a bench that runs one world at a time;
  /// nullptr without --telemetry-out.  finish() writes it to the file
  /// PATH.  A context serves one world at a time, so asking for it with
  /// --jobs > 1 is a usage error.
  telemetry::Telemetry* telemetry() {
    if (flags_.telemetry_out.empty()) return nullptr;
    if (telemetry_mode_ != TelemetryMode::kFile) {
      if (flags_.jobs > 1)
        usage_error("--telemetry-out needs --jobs 1: this bench's worlds "
                    "share one telemetry context");
      namespace fs = std::filesystem;
      const fs::path path(flags_.telemetry_out);
      std::error_code ec;
      if (path.has_parent_path()) fs::create_directories(path.parent_path(), ec);
      if (!std::ofstream(path))
        usage_error("--telemetry-out: cannot write " + flags_.telemetry_out);
      telemetry_mode_ = TelemetryMode::kFile;
      context_.enable();
    }
    return &context_;
  }

  /// SweepSpec pre-filled with this run's --jobs/--replicas and, with
  /// --telemetry-out, the per-point artifact directory; add points and go.
  core::SweepSpec sweep_spec() {
    core::SweepSpec spec;
    spec.jobs = flags_.jobs;
    spec.replicas = flags_.replicas;
    if (!flags_.telemetry_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(flags_.telemetry_out, ec);
      if (!std::filesystem::is_directory(flags_.telemetry_out, ec))
        usage_error("--telemetry-out: cannot create directory " +
                    flags_.telemetry_out);
      telemetry_mode_ = TelemetryMode::kDirectory;
      spec.telemetry_dir = flags_.telemetry_out;
    }
    return spec;
  }

  /// Records run_sweep outcomes into the JSON artifact (appends).
  void record_sweep(const std::vector<core::PointOutcome>& outcomes) {
    points_.insert(points_.end(), outcomes.begin(), outcomes.end());
  }

  /// Accumulates executed simulated events into the run-level
  /// events-per-sec figure (schema v2).  Thread-safe: sweep workers call
  /// this from their own threads, once per finished world.
  void record_events(std::uint64_t executed) {
    total_events_.fetch_add(executed, std::memory_order_relaxed);
  }

  /// Simulated events recorded so far.
  std::uint64_t total_events() const {
    return total_events_.load(std::memory_order_relaxed);
  }

  /// Records one standalone point (single replica, n = 1 aggregates) --
  /// for benches whose points are not Experiment sweeps.
  void record_point(std::string label,
                    std::vector<std::pair<std::string, std::string>> params,
                    core::MetricRow metrics) {
    core::PointOutcome outcome;
    outcome.point.label = std::move(label);
    outcome.point.params = std::move(params);
    outcome.aggregates.reserve(metrics.size());
    for (const auto& [metric_name, metric_value] : metrics)
      outcome.aggregates.emplace_back(metric_name,
                                      core::aggregate({metric_value}));
    outcome.replicas.push_back(std::move(metrics));
    points_.push_back(std::move(outcome));
  }

  /// Checks one claim of the bench: prints `check <name>: ok` or
  /// `check <name>: FAILED <detail>` and records the verdict in the
  /// artifact's "checks" (`detail` explains a failure and is recorded
  /// only for one).  Any failed check makes finish() return 1.  Call
  /// from the main thread.
  void check(const std::string& name, bool ok, const std::string& detail) {
    if (ok)
      std::printf("check %s: ok\n", name.c_str());
    else
      std::printf("check %s: FAILED %s\n", name.c_str(), detail.c_str());
    checks_.push_back({name, ok, ok ? std::string() : detail});
  }

  /// Names the metrics tools/esprof tabulates per point ("headline").
  void headline(std::vector<std::string> metrics) { headline_ = std::move(metrics); }

  /// Writes the requested artifacts and returns the process exit code:
  /// 0, or 1 when a check failed, an artifact could not be written, or
  /// --telemetry-out produced no non-empty artifact.
  int finish() {
    finish_telemetry();
    write_json(total_events());
    const std::size_t failed = static_cast<std::size_t>(
        std::count_if(checks_.begin(), checks_.end(),
                      [](const Check& c) { return !c.ok; }));
    if (!checks_.empty())
      std::printf("checks: %zu of %zu passed\n", checks_.size() - failed,
                  checks_.size());
    return failed > 0 || errors_ > 0 ? 1 : 0;
  }

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  enum class TelemetryMode { kNone, kFile, kDirectory };

  [[noreturn]] void usage_error(const std::string& message) const {
    std::fprintf(stderr,
                 "bench_%s: %s\nusage: bench_%s [--smoke] [--jobs N] "
                 "[--replicas N] [--json OUT] [--telemetry-out PATH]\n",
                 name_.c_str(), message.c_str(), name_.c_str());
    std::exit(2);
  }

  void error(const std::string& message) {
    std::fprintf(stderr, "bench_%s: %s\n", name_.c_str(), message.c_str());
    ++errors_;
  }

  void finish_telemetry() {
    const std::string& path = flags_.telemetry_out;
    if (path.empty()) return;
    switch (telemetry_mode_) {
      case TelemetryMode::kNone:
        error("--telemetry-out: this bench attaches telemetry to no world");
        return;
      case TelemetryMode::kFile:
        if (context_.empty()) {
          std::error_code ec;
          std::filesystem::remove(path, ec);  // the probe telemetry() opened
          error("--telemetry-out: no world recorded telemetry; " + path +
                " not written");
        } else if (!context_.save(path)) {
          error("telemetry: could not write " + path);
        } else {
          std::printf("telemetry: wrote %s\n", path.c_str());
        }
        return;
      case TelemetryMode::kDirectory: {
        bool written = !points_.empty();
        if (!written) error("--telemetry-out: no sweep point recorded");
        for (const core::PointOutcome& point : points_) {
          if (!point.telemetry_path.empty()) continue;
          error("telemetry: point '" + point.point.label +
                "' recorded nothing or could not be written under " + path);
          written = false;
        }
        if (written)
          std::printf("telemetry: wrote %zu artifacts under %s\n",
                      points_.size(), path.c_str());
        return;
      }
    }
  }

  void write_json(std::uint64_t events) {
    if (flags_.json_out.empty()) return;
    namespace fs = std::filesystem;
    fs::path path(flags_.json_out);
    std::error_code ec;
    if (path.extension() != ".json") {
      fs::create_directories(path, ec);
      path /= "BENCH_" + name_ + ".json";
    } else if (path.has_parent_path()) {
      fs::create_directories(path.parent_path(), ec);
    }
    std::ofstream os(path);
    if (!os) {
      error("could not write " + path.string());
      return;
    }
    using telemetry::json_escape;
    using detail::json_number;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    os << "{\n  \"schema\": \"eslurm-bench-v2\",\n  \"bench\": \""
       << json_escape(name_) << "\",\n  \"smoke\": "
       << (flags_.smoke ? "true" : "false") << ",\n  \"jobs\": " << flags_.jobs
       << ",\n  \"replicas\": " << flags_.replicas
       << ",\n  \"wall_seconds\": " << json_number(wall)
       << ",\n  \"total_events\": " << events << ",\n  \"events_per_sec\": "
       << (events > 0 && wall > 0.0
               ? json_number(static_cast<double>(events) / wall)
               : "null")
       << ",\n  \"peak_rss_bytes\": " << detail::peak_rss_bytes()
       << ",\n  \"headline\": [";
    for (std::size_t h = 0; h < headline_.size(); ++h)
      os << (h ? ", \"" : "\"") << json_escape(headline_[h]) << '"';
    os << "],\n  \"checks\": [";
    for (std::size_t c = 0; c < checks_.size(); ++c)
      os << (c ? ",\n    " : "\n    ") << "{\"name\": \""
         << json_escape(checks_[c].name)
         << "\", \"ok\": " << (checks_[c].ok ? "true" : "false")
         << ", \"detail\": \"" << json_escape(checks_[c].detail) << "\"}";
    os << (checks_.empty() ? "]" : "\n  ]") << ",\n  \"points\": [";
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const core::PointOutcome& point = points_[p];
      os << (p ? ",\n    {" : "\n    {");
      os << "\"label\": \"" << json_escape(point.point.label) << "\", \"params\": {";
      for (std::size_t k = 0; k < point.point.params.size(); ++k) {
        const auto& [key, v] = point.point.params[k];
        os << (k ? ", " : "") << '"' << json_escape(key) << "\": \""
           << json_escape(v) << '"';
      }
      os << "}, \"metrics\": {";
      for (std::size_t m = 0; m < point.aggregates.size(); ++m) {
        const auto& [metric_name, stats] = point.aggregates[m];
        os << (m ? ", " : "") << '"' << json_escape(metric_name)
           << "\": {\"mean\": " << json_number(stats.mean)
           << ", \"stddev\": " << json_number(stats.stddev)
           << ", \"min\": " << json_number(stats.min)
           << ", \"max\": " << json_number(stats.max) << ", \"n\": " << stats.n
           << '}';
      }
      os << "}, \"replicas\": [";
      for (std::size_t r = 0; r < point.replicas.size(); ++r) {
        os << (r ? ", {" : "{");
        for (std::size_t m = 0; m < point.replicas[r].size(); ++m) {
          const auto& [metric_name, metric_value] = point.replicas[r][m];
          os << (m ? ", " : "") << '"' << json_escape(metric_name)
             << "\": " << json_number(metric_value);
        }
        os << '}';
      }
      os << "]}";
    }
    os << "\n  ]\n}\n";
    os.close();
    if (!os) {
      error("could not write " + path.string());
      return;
    }
    std::printf("bench: wrote %s\n", path.c_str());
  }

  std::string name_;
  Flags flags_;
  telemetry::Telemetry context_;
  TelemetryMode telemetry_mode_ = TelemetryMode::kNone;
  std::vector<std::string> headline_;
  std::vector<Check> checks_;
  int errors_ = 0;
  std::vector<core::PointOutcome> points_;
  std::atomic<std::uint64_t> total_events_{0};
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// Aggregate lookup on a sweep outcome (nullptr when absent).
inline const core::MetricStats* metric_stats(const core::PointOutcome& outcome,
                                             const std::string& name) {
  for (const auto& [metric_name, stats] : outcome.aggregates)
    if (metric_name == name) return &stats;
  return nullptr;
}

/// Mean of one metric across a point's replicas (0 when absent).
inline double metric_mean(const core::PointOutcome& outcome,
                          const std::string& name) {
  const core::MetricStats* stats = metric_stats(outcome, name);
  return stats ? stats->mean : 0.0;
}

/// "mean" or "mean +/- stddev" cell text, depending on replica count.
inline std::string format_stat(const core::MetricStats* stats, int precision = 3) {
  if (!stats) return "-";
  if (stats->n < 2) return format_double(stats->mean, precision);
  return format_double(stats->mean, precision) + " +/- " +
         format_double(stats->stddev, precision);
}

/// Workload with approximately `target_jobs` submissions over `duration`,
/// clamped to the cluster's width.
inline std::vector<sched::Job> workload_count_for(std::size_t nodes, SimTime duration,
                                                  std::size_t target_jobs,
                                                  trace::WorkloadProfile profile,
                                                  std::uint64_t seed = 0) {
  profile.max_nodes_per_job =
      std::min<int>(profile.max_nodes_per_job, static_cast<int>(nodes));
  if (seed) profile.seed = seed;
  trace::TraceGenerator generator(profile);
  return generator.generate_jobs(target_jobs, duration);
}

/// Workload sized for a cluster: job count scaled so the offered
/// *in-window* load (node-seconds that can land inside [0, duration],
/// divided by capacity) is roughly `load_factor`.  Job sizes are heavy
/// tailed, so the count is found by fixed-point iteration on the actual
/// generated trace rather than a small probe.
inline std::vector<sched::Job> workload_for(std::size_t nodes, SimTime duration,
                                            double load_factor,
                                            trace::WorkloadProfile profile,
                                            std::uint64_t seed = 0) {
  const double capacity = static_cast<double>(nodes) * to_seconds(duration);
  std::size_t target = 3000;
  std::vector<sched::Job> jobs;
  for (int iteration = 0; iteration < 4; ++iteration) {
    jobs = workload_count_for(nodes, duration, target, profile, seed);
    double node_seconds = 0.0;
    for (const auto& job : jobs) {
      const SimTime runnable = std::min(job.actual_runtime, duration - job.submit_time);
      node_seconds += static_cast<double>(job.nodes) * to_seconds(runnable);
    }
    const double realized = node_seconds / capacity;
    if (realized > 0.95 * load_factor && realized < 1.05 * load_factor) break;
    target = static_cast<std::size_t>(
        std::max(200.0, static_cast<double>(target) * load_factor /
                            std::max(realized, 1e-6)));
  }
  return jobs;
}

}  // namespace eslurm::bench
