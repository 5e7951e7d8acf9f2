// Section VII-A "FP-tree node placement": ESLURM deployed on 4K nodes
// for ten days with production-like failures -- sporadic single-node
// events plus one large hardware-replacement burst (the paper saw 28
// small events, one 600+-node burst, 1423 failed-node encounters during
// tree construction, 81.7% of them placed on leaves).
#include "bench_common.hpp"

using namespace eslurm;

int main(int argc, char** argv) {
  bench::Harness harness("fp_tree_placement", "Sec. VII-A",
                         "FP-Tree leaf placement over a 10-day deployment",
                         bench::Uses{.telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 1024 : 4096;
  const SimTime horizon = harness.smoke() ? days(2) : days(10);
  const double sim_days = to_seconds(horizon) / 86400.0;

  core::ExperimentConfig config;
  config.rm = "eslurm";
  config.compute_nodes = nodes;
  config.satellite_count = 2;
  config.horizon = horizon;
  config.seed = 6;
  config.enable_failures = true;
  config.failure_params.node_mtbf_hours = 9000.0;  // ~10 singles/day at 4K
  config.failure_params.repair_mean_hours = 4.0;
  // Hit rate tuned to the production monitoring the paper had: alerts
  // precede ~60% of failures; misses land on leaves only by chance.
  config.monitoring.hit_rate = 0.60;
  config.monitoring.false_alarms_per_node_day = 0.002;
  config.telemetry = harness.telemetry();
  core::Experiment experiment(config);

  // Hardware replacement takes out a large block of nodes mid-run (the
  // paper's day-6, 600+-node event).
  const int burst_nodes = harness.smoke() ? 150 : 620;
  experiment.failures().schedule_burst(
      cluster::BurstEvent{.at = harness.smoke() ? days(1) : days(6),
                          .node_count = static_cast<std::size_t>(burst_nodes),
                          .duration_hours = 12.0});

  const auto jobs = bench::workload_count_for(
      nodes, horizon, harness.smoke() ? 2000 : 12000, trace::tianhe2a_profile(), 8);
  experiment.submit_trace(jobs);
  experiment.run();
  harness.record_events(experiment.engine().executed_events());

  const auto* stats = experiment.eslurm()->fp_tree_stats();
  const auto trees = experiment.eslurm()->fp_trees_constructed();
  std::printf("failures injected            : %llu (plus one %d-node burst)\n",
              (unsigned long long)experiment.failures().injected_failures(),
              burst_nodes);
  std::printf("alerts raised                : %llu (%llu genuine / %llu false)\n",
              (unsigned long long)experiment.monitoring().alerts_raised(),
              (unsigned long long)experiment.monitoring().genuine_alerts(),
              (unsigned long long)experiment.monitoring().false_alarms());
  std::printf("FP-Trees constructed         : %llu (%0.f per satellite-day)\n",
              (unsigned long long)trees,
              static_cast<double>(trees) / (2.0 * sim_days));
  std::printf("predicted nodes encountered  : %zu (%.1f%% on leaves)\n",
              stats->predicted, 100.0 * stats->leaf_placement_ratio());
  std::printf("FAILED nodes encountered     : %zu\n", stats->failed_encountered);
  std::printf("  of which on leaf positions : %zu (%.1f%%)\n", stats->failed_on_leaf,
              100.0 * stats->failed_leaf_ratio());
  harness.record_point(
      "deployment",
      {{"nodes", std::to_string(nodes)},
       {"days", format_double(sim_days, 3)}},
      {{"failures_injected",
        static_cast<double>(experiment.failures().injected_failures())},
       {"alerts_raised",
        static_cast<double>(experiment.monitoring().alerts_raised())},
       {"trees_constructed", static_cast<double>(trees)},
       {"trees_per_satellite_day", static_cast<double>(trees) / (2.0 * sim_days)},
       {"failed_encountered", static_cast<double>(stats->failed_encountered)},
       {"failed_leaf_ratio", stats->failed_leaf_ratio()},
       {"predicted_leaf_ratio", stats->leaf_placement_ratio()}});
  std::printf("\n[paper: 3828 trees/satellite-day, 1423 failed-node encounters,\n"
              " 81.7%% of the *failed* nodes placed on leaves]\n");
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
