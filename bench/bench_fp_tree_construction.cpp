// Section IV micro-benchmarks: the FP-Tree constructor's cost must be
// O(n) in the node-list length (Eq. 2 via the master theorem, plus the
// O(n) rearranger), small enough to run on every broadcast.
//
// Wall-clock timing is done with a simple calibrated loop (repeat until
// the sample window exceeds a minimum), so the numbers are comparable
// across runs of the same machine but are not sim-deterministic --
// bit-identity checks should skip the *_ns metrics of this bench.
#include <chrono>
#include <numeric>

#include "bench_common.hpp"
#include "cluster/monitoring.hpp"
#include "comm/fp_tree.hpp"
#include "comm/tree.hpp"

using namespace eslurm;

namespace {

// Results feed this sink so the timed calls cannot be optimized away.
volatile std::size_t g_sink = 0;

std::vector<net::NodeId> node_list(std::size_t n) {
  std::vector<net::NodeId> list(n);
  std::iota(list.begin(), list.end(), 0u);
  return list;
}

cluster::StaticFailurePredictor predictor_for(std::size_t n, double ratio) {
  Rng rng(42);
  std::vector<net::NodeId> failed;
  for (net::NodeId id = 0; id < n; ++id)
    if (rng.chance(ratio)) failed.push_back(id);
  return cluster::StaticFailurePredictor(std::move(failed));
}

/// ns per call of `fn`, measured over at least `min_seconds` of wall
/// time (batches grow geometrically so the clock is read rarely).
template <typename Fn>
double time_ns(Fn&& fn, double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::size_t batch = 1;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(clock::now() - start).count();
    if (elapsed >= min_seconds)
      return elapsed * 1e9 / static_cast<double>(batch);
    batch *= elapsed < min_seconds / 8 ? 8 : 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("fp_tree_construction", "Sec. IV",
                         "FP-Tree construction cost is O(n) in the list length",
                         bench::Uses{}, argc, argv);
  const double min_seconds = harness.smoke() ? 0.02 : 0.2;
  const std::vector<std::size_t> sizes =
      harness.smoke() ? std::vector<std::size_t>{256, 4096, 65536}
                      : std::vector<std::size_t>{256, 1024, 4096, 16384, 65536,
                                                 131072};

  std::printf("\nleaf location + rearranger vs list length (expect ~linear)\n");
  Table scaling({"n", "leaf location (ns)", "rearrange (ns)", "ns/node"});
  for (const std::size_t n : sizes) {
    const auto list = node_list(n);
    const auto predictor = predictor_for(n, 0.02);
    const double locate_ns = time_ns(
        [&] { g_sink = g_sink + comm::locate_leaf_positions(n, 50).size(); }, min_seconds);
    const double rearrange_ns = time_ns(
        [&] { g_sink = g_sink + comm::rearrange_nodelist(list, 50, predictor).size(); },
        min_seconds);
    scaling.add_row({std::to_string(n), format_double(locate_ns, 4),
                     format_double(rearrange_ns, 4),
                     format_double(rearrange_ns / static_cast<double>(n), 3)});
    harness.record_point("n=" + std::to_string(n), {{"n", std::to_string(n)}},
                         {{"locate_leaf_ns", locate_ns},
                          {"rearrange_ns", rearrange_ns},
                          {"rearrange_ns_per_node",
                           rearrange_ns / static_cast<double>(n)}});
  }
  scaling.print();

  std::printf("\nrearranger vs failure ratio (full NG-Tianhe list, 20480 nodes)\n");
  const std::size_t full = harness.smoke() ? 4096 : 20480;
  const auto full_list = node_list(full);
  Table ratio_table({"failure %", "rearrange (ns)"});
  for (const int ratio : {0, 10, 20, 30}) {
    const auto predictor = predictor_for(full, ratio / 100.0);
    const double ns = time_ns(
        [&] { g_sink = g_sink + comm::rearrange_nodelist(full_list, 50, predictor).size(); },
        min_seconds);
    ratio_table.add_row({std::to_string(ratio), format_double(ns, 4)});
    harness.record_point("ratio=" + std::to_string(ratio) + "%",
                         {{"failure_ratio_pct", std::to_string(ratio)},
                          {"n", std::to_string(full)}},
                         {{"rearrange_ns", ns}});
  }
  ratio_table.print();

  const double depth_ns = time_ns(
      [&] {
        g_sink = g_sink + static_cast<std::size_t>(comm::tree_depth_estimate(1 << 20, 50));
      },
      min_seconds);
  std::printf("\ntree_depth_estimate(1M nodes): %.1f ns\n", depth_ns);
  harness.record_point("depth_estimate", {{"n", "1048576"}},
                       {{"depth_estimate_ns", depth_ns}});
  std::printf("\n[expect: ns/node roughly flat across n (linear construction);\n"
              " rearrange cost insensitive to the failure ratio]\n");
  return harness.finish();
}
