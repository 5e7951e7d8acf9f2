// Fig. 5 of the paper: workload-trace statistics.
//   (a) CDF of the user runtime-estimate accuracy P = t_s / t_r
//       (paper: 80-90% of runtimes overestimated);
//   (b) job-correlation ratio vs submit interval (paper: decays;
//       plateaus ~0.3 on Tianhe-2A, ~0 on NG-Tianhe at 30 h);
//   (c) job-correlation ratio vs job-ID gap (paper: decays, stabilizes
//       ~0.08 past a gap of 700).
// Plus the two Section V-A scalar observations (71.4% of >6 h jobs
// submitted 18:00-24:00; ~89.2% same-job resubmission within 24 h).
#include "bench_common.hpp"
#include "trace/statistics.hpp"
#include "util/stats.hpp"

using namespace eslurm;

namespace {

void analyze(bench::Harness& harness, const char* label,
             const trace::WorkloadProfile& profile, SimTime window) {
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(window);
  std::printf("\n--- %s: %zu jobs over %.0f days ---\n", label, jobs.size(),
              to_seconds(window) / 86400.0);

  // (a) CDF of P.
  const auto samples = trace::estimate_accuracy_samples(jobs);
  const std::vector<double> thresholds{0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0};
  const auto cdf = empirical_cdf(samples, thresholds);
  Table cdf_table({"P <=", "CDF"});
  for (std::size_t i = 0; i < thresholds.size(); ++i)
    cdf_table.add_row({format_double(thresholds[i], 3), format_double(cdf[i], 3)});
  cdf_table.print();
  std::size_t over = 0;
  for (const double p : samples)
    if (p > 1.0) ++over;
  const double over_fraction = static_cast<double>(over) / samples.size();
  std::printf("overestimated fraction (P > 1): %.3f  [paper: 0.80-0.90]\n",
              over_fraction);

  // (b) correlation vs submit interval.
  const std::vector<double> interval_edges{1, 5, 10, 20, 30, 40, 50};
  const auto by_interval = trace::correlation_vs_interval(jobs, interval_edges);
  Table fig5b({"interval <= (h)", "correlation ratio", "pairs"});
  for (std::size_t i = 0; i < interval_edges.size(); ++i)
    fig5b.add_row({format_double(interval_edges[i], 3),
                   format_double(by_interval.ratio[i], 3),
                   std::to_string(by_interval.pairs[i])});
  std::printf("\nFig 5b: correlation vs submit interval (same-user pairs)\n");
  fig5b.print();

  // (c) correlation vs job-ID gap.
  const std::vector<std::size_t> gap_edges{10, 50, 200, 700, 1500, 3000};
  const auto by_gap = trace::correlation_vs_id_gap(jobs, gap_edges);
  Table fig5c({"ID gap <=", "correlation ratio", "pairs"});
  for (std::size_t i = 0; i < gap_edges.size(); ++i)
    fig5c.add_row({std::to_string(gap_edges[i]), format_double(by_gap.ratio[i], 3),
                   std::to_string(by_gap.pairs[i])});
  std::printf("\nFig 5c: correlation vs job-ID gap (all pairs)\n");
  fig5c.print();

  const double evening = trace::long_job_evening_fraction(jobs);
  const double resubmit = trace::resubmit_within_24h_fraction(jobs);
  std::printf("\nSection V-A scalars:\n");
  std::printf("  >6h jobs submitted 18:00-24:00 : %.3f  [paper: 0.714]\n", evening);
  std::printf("  same job resubmitted within 24h: %.3f  [paper: 0.892]\n", resubmit);

  harness.record_point(
      label, {{"system", label}, {"days", format_double(to_seconds(window) / 86400.0, 3)}},
      {{"jobs", static_cast<double>(jobs.size())},
       {"overestimated_fraction", over_fraction},
       {"correlation_1h", by_interval.ratio.front()},
       {"correlation_gap_700", by_gap.ratio[3]},
       {"long_job_evening_fraction", evening},
       {"resubmit_within_24h_fraction", resubmit}});
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("fig5_trace_stats", "Fig. 5",
                         "workload-trace statistics of the two Tianhe systems",
                         bench::Uses{}, argc, argv);
  const SimTime window = harness.smoke() ? days(3) : days(14);
  analyze(harness, "Tianhe-2A", trace::tianhe2a_profile(), window);
  analyze(harness, "NG-Tianhe", trace::ng_tianhe_profile(), window);
  return harness.finish();
}
