// Fig. 11b of the paper: runtime-estimation model comparison on the
// NG-Tianhe historical workload (offline replay: predict at submission,
// learn at completion, retrain on each model's own cadence).
//
// Paper: user estimates are the least accurate and always overestimate;
// SVM, RandomForest and Last-2 stay below 70% AEA with underestimation
// above 25%; IRPA, TRIP and PREP do better; ESLURM leads with 84% AEA at
// ~10% underestimation.
#include "bench_common.hpp"
#include "predict/baselines.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("fig11b_estimators", "Fig. 11b",
                         "runtime-estimation models on NG-Tianhe history",
                         bench::Uses{.jobs = true}, argc, argv);
  trace::WorkloadProfile profile = trace::ng_tianhe_profile();
  profile.jobs_per_hour = 12;  // NG-Tianhe's observed rate (Table III)
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(harness.smoke() ? days(21) : days(90));
  std::printf("workload: %zu jobs\n\n", jobs.size());

  const auto names = predict::predictor_names();
  struct Cell {
    double aea = 0.0;
    double under = 0.0;
  };
  std::vector<Cell> cells(names.size());
  core::parallel_for(names.size(), harness.jobs(), [&](std::size_t i) {
    const std::string& name = names[i];
    std::unique_ptr<predict::RuntimePredictor> predictor;
    if (name == "eslurm") {
      // Model refresh matched to the job rate (the paper's two exposed
      // knobs; see EXPERIMENTS.md).
      predict::EstimatorConfig config;
      config.retrain_period = hours(4);
      predictor = std::make_unique<predict::EslurmPredictor>(config, 7);
    } else {
      predictor = predict::make_predictor(name);
    }
    predict::AccuracyTracker accuracy;
    for (const auto& job : jobs) {
      predictor->maybe_retrain(job.submit_time);
      accuracy.add(predictor->predict(job), job.actual_runtime);
      predictor->observe(job);
    }
    cells[i] = {accuracy.aea(), accuracy.underestimate_rate()};
    std::printf("[%s done]\n", name.c_str());
  });

  Table table({"model", "AEA", "underestimation rate"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.add_row({names[i], format_double(cells[i].aea, 3),
                   format_double(cells[i].under, 3)});
    harness.record_point(names[i], {{"model", names[i]}},
                         {{"aea", cells[i].aea},
                          {"underestimate_rate", cells[i].under}});
  }
  std::printf("\n");
  table.print();
  std::printf("\n[paper: user worst & always over; SVM/RF/Last-2 < 0.70 AEA with\n"
              " UR > 0.25; IRPA/TRIP/PREP higher; ESLURM best: 0.84 AEA, ~0.10 UR]\n");
  return harness.finish();
}
