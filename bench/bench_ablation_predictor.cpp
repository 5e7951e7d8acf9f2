// Ablation study of the estimation framework's design choices (the two
// admin-exposed knobs of Section V-A plus the clustering):
//
//   * interest-window size (paper default 700, from the Fig. 5c gap
//     analysis);
//   * model-refresh period (paper default 15 h, bounded by the 30 h
//     correlation horizon of Fig. 5b; should scale with the job rate);
//   * cluster count K (paper: 15 via the elbow method) including K = 1
//     (no clustering -> one global SVR) and elbow-auto.
#include "bench_common.hpp"
#include "predict/baselines.hpp"

using namespace eslurm;

namespace {

struct Cell {
  std::string group;
  std::string knob;
  std::string value;
  predict::EstimatorConfig config;
  double aea = 0.0;
  double ur = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("ablation_predictor", "Ablation", "estimation-framework design knobs",
                         bench::Uses{.jobs = true}, argc, argv);
  trace::WorkloadProfile profile = trace::tianhe2a_profile();
  profile.jobs_per_hour = 25;
  trace::TraceGenerator generator(profile);
  const auto jobs = generator.generate(harness.smoke() ? days(7) : days(21));
  std::printf("workload: %zu jobs\n\n", jobs.size());

  predict::EstimatorConfig base;
  base.retrain_period = hours(4);

  std::vector<Cell> cells;
  const std::vector<std::size_t> windows =
      harness.smoke() ? std::vector<std::size_t>{100, 700, 3000}
                      : std::vector<std::size_t>{100, 300, 700, 1500, 3000};
  for (const std::size_t window : windows) {
    Cell cell{"window", "interest_window", std::to_string(window), base};
    cell.config.interest_window = window;
    cells.push_back(std::move(cell));
  }
  const std::vector<int> periods = harness.smoke()
                                       ? std::vector<int>{1, 15, 60}
                                       : std::vector<int>{1, 4, 8, 15, 30, 60};
  for (const int hours_value : periods) {
    Cell cell{"period", "retrain_hours", std::to_string(hours_value), base};
    cell.config.retrain_period = hours(hours_value);
    cells.push_back(std::move(cell));
  }
  const std::vector<std::size_t> ks = harness.smoke()
                                          ? std::vector<std::size_t>{1, 15, 0}
                                          : std::vector<std::size_t>{1, 5, 15, 40, 0};
  for (const std::size_t k : ks) {
    Cell cell{"clusters", "K", k == 0 ? "elbow" : std::to_string(k), base};
    cell.config.clusters = k;
    cells.push_back(std::move(cell));
  }

  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    predict::EslurmPredictor predictor(cells[i].config, 7);
    predict::AccuracyTracker accuracy;
    for (const auto& job : jobs) {
      predictor.maybe_retrain(job.submit_time);
      accuracy.add(predictor.predict(job), job.actual_runtime);
      predictor.observe(job);
    }
    cells[i].aea = accuracy.aea();
    cells[i].ur = accuracy.underestimate_rate();
  });

  auto print_group = [&](const char* group, const char* heading,
                         const char* column) {
    std::printf("%s\n", heading);
    Table table({column, "AEA", "UR"});
    for (const Cell& cell : cells) {
      if (cell.group != group) continue;
      table.add_row({cell.value, format_double(cell.aea, 3),
                     format_double(cell.ur, 3)});
      harness.record_point(cell.knob + "=" + cell.value,
                           {{"knob", cell.knob}, {"value", cell.value}},
                           {{"aea", cell.aea}, {"underestimate_rate", cell.ur}});
    }
    table.print();
  };
  print_group("window", "interest-window size (jobs):", "window");
  std::printf("\n");
  print_group("period", "model-refresh period:", "period (h)");
  std::printf("[paper guidance: never refresh slower than every 30 h (Fig. 5b)]\n\n");
  print_group("clusters", "cluster count K (0 = elbow auto):", "K");
  std::printf("[paper: K = 15 selected by the elbow method]\n");
  return harness.finish();
}
