// Fig. 8 of the paper: message-broadcast efficiency on 4K nodes.
//
//   (a) average broadcast time of the job-loading (message 1) and
//       job-termination (message 2) messages for Slurm (master tree),
//       ESLURM without FP-Tree (satellites + plain trees) and full
//       ESLURM, with ~2% failed nodes (the production failure level).
//       Paper: ESLURM cuts the averages by 63.7% / 73.6%; the FP-Tree
//       alone accounts for 36.3% / 54.9%.
//   (b) broadcast time of the job-loading message vs the failure ratio
//       (0-30%) for ring, star, shared-memory, tree and FP-Tree.
//       Paper: ring/star/tree grow sharply (minutes), shared memory is
//       flat, the FP-Tree stays below ~10 s even at 30%.
#include <optional>

#include "util/stats.hpp"

#include "bench_common.hpp"
#include "comm/fp_tree.hpp"
#include "comm/ring.hpp"
#include "comm/shared_memory.hpp"
#include "comm/star.hpp"

using namespace eslurm;

namespace {

struct World {
  sim::Engine engine;
  std::optional<net::Network> net;
  std::optional<cluster::ClusterModel> cluster;
  std::vector<net::NodeId> targets;
  std::size_t nodes;

  World(std::size_t node_count, std::uint64_t seed,
        telemetry::Telemetry* telemetry = nullptr)
      : engine(telemetry), nodes(node_count) {
    net::LinkModel link;
    net.emplace(engine, nodes + 1, link, Rng(seed));
    cluster.emplace(engine, nodes + 1);
    net->set_liveness(cluster->liveness());
    for (net::NodeId n = 1; n <= nodes; ++n) targets.push_back(n);
  }

  /// Fails `ratio` of the targets; returns the failed set.
  std::vector<net::NodeId> fail_fraction(double ratio, Rng& rng) {
    std::vector<net::NodeId> shuffled = targets;
    rng.shuffle(shuffled);
    const auto count = static_cast<std::size_t>(ratio * shuffled.size());
    shuffled.resize(count);
    for (const net::NodeId n : shuffled) cluster->fail(n);
    return shuffled;
  }

  double run_one(comm::Broadcaster& b, const comm::BroadcastOptions& opts) {
    std::optional<comm::BroadcastResult> result;
    b.broadcast(0, targets, opts, [&](const comm::BroadcastResult& r) { result = r; });
    engine.run();
    return result ? to_seconds(result->elapsed()) : -1.0;
  }
};

// --- Fig. 8a -----------------------------------------------------------

/// Average dispatch time over several rounds for one RM flavour under
/// ~2% failures (predicted by a perfect monitoring view for the FP case).
double fig8a_time(bench::Harness& harness, const std::string& flavour,
                  std::size_t nodes, std::size_t bytes, std::uint64_t seed,
                  int rounds, telemetry::Telemetry* telemetry) {
  // Average over independent rounds, each with its own 2% failure draw
  // (timeout quantization would otherwise dominate a single draw).
  RunningStats elapsed;
  for (int round = 0; round < rounds; ++round) {
    World world(nodes, derive_seed(seed, static_cast<std::uint64_t>(round)),
                telemetry);
    Rng rng(derive_seed(seed ^ 0xF00, static_cast<std::uint64_t>(round)));
    const auto failed = world.fail_fraction(0.02, rng);
    cluster::StaticFailurePredictor predictor(failed);

    comm::BroadcastOptions opts;
    opts.payload_bytes = bytes;

    if (flavour == "slurm") {
      comm::TreeBroadcaster tree(*world.net);
      elapsed.add(world.run_one(tree, opts));
      harness.record_events(world.engine.executed_events());
      continue;
    }
    // ESLURM: two satellites each relay half the list.  Model the
    // satellites as two concurrent tree roots over half-lists; the
    // halving of the fan-out plus (optionally) FP rearrangement is what
    // Fig. 8a isolates.
    std::unique_ptr<comm::TreeBroadcaster> relay;
    if (flavour == "eslurm")
      relay = std::make_unique<comm::FpTreeBroadcaster>(*world.net, predictor);
    else
      relay = std::make_unique<comm::TreeBroadcaster>(*world.net);
    const std::size_t half = world.targets.size() / 2;
    std::vector<net::NodeId> first(world.targets.begin(), world.targets.begin() + half);
    std::vector<net::NodeId> second(world.targets.begin() + half, world.targets.end());
    std::optional<comm::BroadcastResult> r1, r2;
    relay->broadcast(0, first, opts, [&](const comm::BroadcastResult& r) { r1 = r; });
    relay->broadcast(0, second, opts, [&](const comm::BroadcastResult& r) { r2 = r; });
    world.engine.run();
    harness.record_events(world.engine.executed_events());
    const SimTime finish = std::max(r1->finished, r2->finished);
    elapsed.add(to_seconds(finish - std::min(r1->started, r2->started)));
  }
  return elapsed.mean();
}

void fig8a(bench::Harness& harness, std::size_t nodes, int rounds) {
  std::printf("\nFig 8a: average broadcast time, %zu-node job, ~2%% failed nodes\n",
              nodes);
  struct Cell {
    const char* flavour;
    const char* msg;
    std::size_t bytes;
    std::uint64_t seed;
    double elapsed = 0.0;
  };
  std::vector<Cell> cells{{"slurm", "load", 2048, 11},       {"slurm", "term", 512, 12},
                          {"eslurm-noFP", "load", 2048, 13}, {"eslurm-noFP", "term", 512, 14},
                          {"eslurm", "load", 2048, 15},      {"eslurm", "term", 512, 16}};
  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    Cell& cell = cells[i];
    cell.elapsed = fig8a_time(harness, cell.flavour, nodes, cell.bytes, cell.seed,
                              rounds, telemetry);
  });
  for (const Cell& cell : cells) {
    harness.record_point(std::string(cell.flavour) + "/" + cell.msg,
                         {{"flavour", cell.flavour},
                          {"msg", cell.msg},
                          {"nodes", std::to_string(nodes)}},
                         {{"broadcast_mean_s", cell.elapsed}});
  }
  Table table({"RM", "job load msg (s)", "job term msg (s)"});
  table.add_row({"Slurm", format_double(cells[0].elapsed, 4),
                 format_double(cells[1].elapsed, 4)});
  table.add_row({"ESLURM w/o FP-Tree", format_double(cells[2].elapsed, 4),
                 format_double(cells[3].elapsed, 4)});
  table.add_row({"ESLURM", format_double(cells[4].elapsed, 4),
                 format_double(cells[5].elapsed, 4)});
  table.print();
  std::printf("reduction vs Slurm: load %.1f%%, term %.1f%%  [paper: 63.7%%, 73.6%%]\n",
              100.0 * (1.0 - cells[4].elapsed / cells[0].elapsed),
              100.0 * (1.0 - cells[5].elapsed / cells[1].elapsed));
  std::printf("FP-Tree share     : load %.1f%%, term %.1f%%  [paper: 36.3%%, 54.9%%]\n",
              100.0 * (1.0 - cells[4].elapsed / cells[2].elapsed),
              100.0 * (1.0 - cells[5].elapsed / cells[3].elapsed));
}

// --- Fig. 8b -----------------------------------------------------------

void fig8b(bench::Harness& harness, std::size_t nodes) {
  std::printf("\nFig 8b: broadcast time (s) vs failure ratio, %zu nodes\n", nodes);
  const std::vector<double> ratios =
      harness.smoke() ? std::vector<double>{0.0, 0.02, 0.10}
                      : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30};
  const std::vector<std::string> structures{"ring", "star", "shm", "tree", "fp"};
  std::vector<double> elapsed(ratios.size() * structures.size(), 0.0);
  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(elapsed.size(), harness.jobs(), [&](std::size_t i) {
    const double ratio = ratios[i / structures.size()];
    const std::string& structure = structures[i % structures.size()];
    World world(nodes, 0xB0 + static_cast<std::uint64_t>(ratio * 1000), telemetry);
    Rng rng(0x5EED);
    const auto failed = world.fail_fraction(ratio, rng);
    cluster::StaticFailurePredictor predictor(failed);
    comm::BroadcastOptions opts;
    opts.payload_bytes = 2048;
    if (structure == "ring") {
      comm::RingBroadcaster b(*world.net);
      elapsed[i] = world.run_one(b, opts);
    } else if (structure == "star") {
      comm::StarBroadcaster b(*world.net);
      elapsed[i] = world.run_one(b, opts);
    } else if (structure == "shm") {
      comm::SharedMemoryBroadcaster b(*world.net);
      elapsed[i] = world.run_one(b, opts);
    } else if (structure == "tree") {
      comm::TreeBroadcaster b(*world.net);
      elapsed[i] = world.run_one(b, opts);
    } else {
      comm::FpTreeBroadcaster b(*world.net, predictor);
      elapsed[i] = world.run_one(b, opts);
    }
    harness.record_events(world.engine.executed_events());
  });
  Table table({"failure %", "ring", "star", "shared-mem", "tree", "FP-Tree"});
  for (std::size_t r = 0; r < ratios.size(); ++r) {
    std::vector<std::string> row{format_double(100 * ratios[r], 3)};
    core::MetricRow metrics;
    for (std::size_t s = 0; s < structures.size(); ++s) {
      const double value = elapsed[r * structures.size() + s];
      row.push_back(format_double(value, 4));
      metrics.emplace_back(structures[s] + "_s", value);
    }
    table.add_row(std::move(row));
    harness.record_point("failure=" + format_double(100 * ratios[r], 3) + "%",
                         {{"failure_ratio", format_double(ratios[r], 4)},
                          {"nodes", std::to_string(nodes)}},
                         std::move(metrics));
  }
  table.print();
  std::printf("[paper: ring/star/tree rise sharply; shared-mem flat; FP-Tree < 10 s "
              "even at 30%%]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("fig8_broadcast", "Fig. 8",
                         "broadcast efficiency and failure tolerance (4K nodes)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 1024 : 4096;
  const int rounds = harness.smoke() ? 3 : 10;
  fig8a(harness, nodes, rounds);
  fig8b(harness, nodes);
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
