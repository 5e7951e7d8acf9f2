// Table VIII of the paper: the slack variable alpha (Eq. 3) traded off
// against estimation accuracy on the NG-Tianhe year of history.
//
// Paper: AEA falls slowly (0.87 -> 0.80) while the underestimation rate
// falls steeply then flattens (0.54 -> 0.11) as alpha goes 1.00 -> 1.08;
// the knee at 1.05 is the deployed default.
#include "bench_common.hpp"
#include "predict/baselines.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("tab8_slack", "Table VIII",
                         "slack variable alpha vs AEA / underestimation rate",
                         bench::Uses{.jobs = true}, argc, argv);
  trace::WorkloadProfile profile = trace::ng_tianhe_profile();
  profile.jobs_per_hour = 12;
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(harness.smoke() ? days(21) : days(90));
  std::printf("workload: %zu jobs\n\n", jobs.size());

  const std::vector<double> alphas =
      harness.smoke()
          ? std::vector<double>{1.00, 1.05, 1.08}
          : std::vector<double>{1.00, 1.01, 1.02, 1.03, 1.04,
                                1.05, 1.06, 1.07, 1.08};
  struct Cell {
    double aea = 0.0;
    double under = 0.0;
  };
  std::vector<Cell> cells(alphas.size());
  core::parallel_for(alphas.size(), harness.jobs(), [&](std::size_t i) {
    predict::EstimatorConfig config;
    config.alpha = alphas[i];
    config.retrain_period = hours(4);
    predict::EslurmPredictor predictor(config, 7);
    predict::AccuracyTracker accuracy;
    for (const auto& job : jobs) {
      predictor.maybe_retrain(job.submit_time);
      accuracy.add(predictor.predict(job), job.actual_runtime);
      predictor.observe(job);
    }
    cells[i] = {accuracy.aea(), accuracy.underestimate_rate()};
  });

  Table table({"alpha", "AEA", "UR"});
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    table.add_row({format_double(alphas[i], 3), format_double(cells[i].aea, 3),
                   format_double(cells[i].under, 3)});
    harness.record_point("alpha=" + format_double(alphas[i], 3),
                         {{"alpha", format_double(alphas[i], 3)}},
                         {{"aea", cells[i].aea},
                          {"underestimate_rate", cells[i].under}});
  }
  table.print();
  std::printf("\n[paper: AEA 0.87->0.80, UR 0.54->0.11; knee at alpha = 1.05]\n");
  return harness.finish();
}
