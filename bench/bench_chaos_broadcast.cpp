// Chaos companion to Fig. 8: broadcast reliability vs ambient message
// loss on 4K nodes.
//
// Sweeps uniform drop rates (0-10%, plus a fixed 2% duplication rate)
// over the tree and FP-Tree structures, each with raw Network sends and
// with the reliable transport (retry/backoff + duplicate suppression).
// The paper's broadcast structures assume a lossless fabric; this bench
// quantifies what the reliable transport buys when that assumption
// breaks:
//   * raw trees falsely declare healthy nodes unreachable as soon as a
//     relay's in-tree retries are all dropped -- lost deliveries grow
//     with the drop rate;
//   * the transported variants lose nothing (delivered == targets) at
//     every swept rate, paying only retransmit latency (checked: a lost
//     delivery on a reliable point makes the bench exit 1).
// All worlds are seeded per sweep point, so results are bit-identical
// across --jobs values and across runs.
#include <optional>

#include "bench_common.hpp"
#include "comm/fp_tree.hpp"
#include "net/chaos.hpp"
#include "net/transport.hpp"

using namespace eslurm;

namespace {

struct Cell {
  double drop = 0.0;
  std::string structure;  ///< "tree" or "fp"
  bool reliable = false;

  double elapsed_s = 0.0;
  double delivered = 0.0;
  double lost = 0.0;
  double chaos_dropped = 0.0;
  double retransmits = 0.0;
  double dup_suppressed = 0.0;
};

void run_cell(bench::Harness& harness, Cell& cell, std::size_t nodes,
              telemetry::Telemetry* telemetry) {
  sim::Engine engine(telemetry);
  net::LinkModel link;
  net::Network net(engine, nodes + 1, link, Rng(1));
  cluster::ClusterModel cluster(engine, nodes + 1);
  net.set_liveness(cluster.liveness());

  net::ChaosInjector chaos(engine, nodes + 1,
                           Rng(derive_seed(0xC4A05, static_cast<std::uint64_t>(
                                                        cell.drop * 1000))));
  net::ChaosPlan plan;
  plan.ambient(cell.drop, /*duplicate=*/0.02);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);

  std::optional<net::ReliableTransport> transport;
  if (cell.reliable) transport.emplace(net, Rng(9));
  net::ReliableTransport* channel = transport ? &*transport : nullptr;

  cluster::StaticFailurePredictor predictor({});
  std::optional<comm::TreeBroadcaster> tree;
  std::optional<comm::FpTreeBroadcaster> fp;
  comm::Broadcaster* b;
  if (cell.structure == "fp") {
    fp.emplace(net, predictor, "fp-tree", channel);
    b = &*fp;
  } else {
    tree.emplace(net, "tree", channel);
    b = &*tree;
  }

  std::vector<net::NodeId> targets(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    targets[i] = static_cast<net::NodeId>(1 + i);
  comm::BroadcastOptions opts;
  opts.payload_bytes = 2048;
  std::optional<comm::BroadcastResult> result;
  b->broadcast(0, std::move(targets), opts,
               [&](const comm::BroadcastResult& r) { result = r; });
  engine.run();
  harness.record_events(engine.executed_events());

  cell.elapsed_s = result ? to_seconds(result->elapsed()) : -1.0;
  cell.delivered = result ? static_cast<double>(result->delivered) : 0.0;
  cell.lost = static_cast<double>(nodes) - cell.delivered;
  cell.chaos_dropped = static_cast<double>(chaos.dropped());
  cell.retransmits = channel ? static_cast<double>(channel->retransmits()) : 0.0;
  cell.dup_suppressed =
      channel ? static_cast<double>(channel->duplicates_suppressed()) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("chaos_broadcast", "Fig. 8 companion",
                         "broadcast reliability vs message loss (4K nodes)",
                         bench::Uses{.jobs = true, .telemetry = true}, argc, argv);
  const std::size_t nodes = harness.smoke() ? 1024 : 4096;
  const std::vector<double> drops =
      harness.smoke() ? std::vector<double>{0.0, 0.05, 0.10}
                      : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10};

  std::vector<Cell> cells;
  for (const double drop : drops)
    for (const char* structure : {"tree", "fp"})
      for (const bool reliable : {false, true})
        cells.push_back({drop, structure, reliable});

  telemetry::Telemetry* telemetry = harness.telemetry();
  core::parallel_for(cells.size(), harness.jobs(), [&](std::size_t i) {
    run_cell(harness, cells[i], nodes, telemetry);
  });

  std::printf("\nbroadcast under uniform drop (%zu nodes, 2%% duplication)\n",
              nodes);
  Table table({"drop %", "structure", "transport", "elapsed (s)", "delivered",
               "lost", "retransmits", "dup suppressed"});
  std::string lossy;  // labels of reliable points that lost deliveries
  for (Cell& cell : cells) {
    const std::string transport_name = cell.reliable ? "reliable" : "raw";
    const auto count = [](double v) {
      return std::to_string(static_cast<long long>(v));
    };
    table.add_row({format_double(100 * cell.drop, 3), cell.structure,
                   transport_name, format_double(cell.elapsed_s, 4),
                   count(cell.delivered), count(cell.lost),
                   count(cell.retransmits), count(cell.dup_suppressed)});
    const std::string label = "drop=" + format_double(100 * cell.drop, 3) +
                              "%/" + cell.structure + "/" + transport_name;
    if (cell.reliable && cell.lost != 0.0) lossy += " " + label;
    harness.record_point(
        label,
        {{"drop_prob", format_double(cell.drop, 4)},
         {"structure", cell.structure},
         {"transport", transport_name},
         {"nodes", std::to_string(nodes)}},
        {{"elapsed_s", cell.elapsed_s},
         {"delivered", cell.delivered},
         {"lost", cell.lost},
         {"chaos_dropped", cell.chaos_dropped},
         {"retransmits", cell.retransmits},
         {"dup_suppressed", cell.dup_suppressed}});
  }
  table.print();
  std::printf("[reliable variants must report lost = 0 at every drop rate; "
              "raw trees shed deliveries as drops defeat their in-tree "
              "retries]\n");
  harness.check("reliable points lose 0", lossy.empty(),
                "deliveries lost at" + lossy);
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
