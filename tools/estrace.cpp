// estrace -- generate and analyze workload traces.
//
//   estrace generate --profile ng-tianhe --days 7 --jobs 10000 --out w.trace
//   estrace stats w.trace
//
// `generate` writes a synthetic trace in the eslurm-trace format;
// `stats` reproduces the Fig. 5-style analyses for any trace file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "trace/generator.hpp"
#include "trace/statistics.hpp"
#include "trace/swf.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace eslurm;

namespace {

int cmd_generate(const ArgParser& args) {
  const std::string profile_name = args.get_or("profile", "tianhe-2a");
  trace::WorkloadProfile profile = profile_name == "ng-tianhe"
                                       ? trace::ng_tianhe_profile()
                                       : trace::tianhe2a_profile();
  if (const auto seed = args.get("seed"))
    profile.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const SimTime duration = days(args.get_int("days", 7));
  trace::TraceGenerator generator(profile);
  const auto jobs =
      args.get("jobs")
          ? generator.generate_jobs(
                static_cast<std::size_t>(args.get_int("jobs", 10000)), duration)
          : generator.generate(duration);

  const bool swf = args.get_or("format", "native") == "swf";
  auto write = [&](std::ostream& os) {
    if (swf)
      trace::write_swf(os, jobs);
    else
      trace::write_trace(os, jobs);
  };
  const std::string out = args.get_or("out", "-");
  if (out == "-") {
    write(std::cout);
  } else {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "estrace: cannot write '%s'\n", out.c_str());
      return 1;
    }
    write(file);
    std::fprintf(stderr, "estrace: %zu jobs written to %s (%s)\n", jobs.size(),
                 out.c_str(), swf ? "swf" : "native");
  }
  return 0;
}

/// Reads a trace in either format, keyed by the --format option or the
/// file extension (.swf).
std::vector<sched::Job> read_any(const ArgParser& args, const std::string& path,
                                 std::istream& is) {
  const std::string format = args.get_or("format", "auto");
  const bool swf = format == "swf" ||
                   (format == "auto" && path.size() > 4 &&
                    path.substr(path.size() - 4) == ".swf");
  return swf ? trace::read_swf(is) : trace::read_trace(is);
}

int cmd_stats(const ArgParser& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "estrace stats: trace file required\n");
    return 2;
  }
  std::ifstream file(args.positional()[1]);
  if (!file) {
    std::fprintf(stderr, "estrace: cannot read '%s'\n", args.positional()[1].c_str());
    return 1;
  }
  std::vector<sched::Job> jobs;
  try {
    jobs = read_any(args, args.positional()[1], file);
  } catch (const std::invalid_argument& error) {  // a malformed line
    std::fprintf(stderr, "estrace: %s: %s\n", args.positional()[1].c_str(), error.what());
    return 1;
  }
  std::printf("%zu jobs\n\n", jobs.size());

  const auto samples = trace::estimate_accuracy_samples(jobs);
  std::size_t over = 0;
  for (const double p : samples)
    if (p > 1.0) ++over;
  std::printf("runtime estimates overestimated: %.1f%%\n",
              samples.empty() ? 0.0 : 100.0 * over / samples.size());
  std::printf(">6h jobs submitted 18:00-24:00 : %.1f%%\n",
              100.0 * trace::long_job_evening_fraction(jobs));
  std::printf("resubmit-within-24h probability: %.1f%%\n\n",
              100.0 * trace::resubmit_within_24h_fraction(jobs));

  const std::vector<double> edges{1, 5, 10, 20, 30, 40, 50};
  const auto curve = trace::correlation_vs_interval(jobs, edges);
  Table table({"interval <= (h)", "correlation ratio", "pairs"});
  for (std::size_t i = 0; i < edges.size(); ++i)
    table.add_row({format_double(edges[i], 3), format_double(curve.ratio[i], 3),
                   std::to_string(curve.pairs[i])});
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("profile", "workload profile: tianhe-2a | ng-tianhe", "tianhe-2a");
  args.add_option("days", "trace duration in days", "7");
  args.add_option("jobs", "approximate job count (default: profile rate)");
  args.add_option("seed", "generator seed");
  args.add_option("out", "output file ('-' = stdout)", "-");
  args.add_option("format", "trace format: native | swf | auto", "auto");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "estrace: %s\n", args.error().c_str());
    return 2;
  }
  if (args.help_requested() || args.positional().empty()) {
    std::fputs(args.usage("estrace <generate|stats> [file]",
                          "Generate and analyze workload traces.")
                   .c_str(),
               stdout);
    return args.help_requested() ? 0 : 2;
  }
  const std::string command = args.positional()[0];
  if (command == "generate") {
    try {
      return cmd_generate(args);
    } catch (const std::invalid_argument& error) {  // a malformed number
      std::fprintf(stderr, "estrace: %s\n", error.what());
      return 2;
    }
  }
  if (command == "stats") return cmd_stats(args);
  std::fprintf(stderr, "estrace: unknown command '%s'\n", command.c_str());
  return 2;
}
