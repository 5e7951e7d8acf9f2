// SoA node-state micro-benchmarks: the bitset-scan queries that the
// heartbeat/monitoring sweeps run per tick, measured against the naive
// per-node-object + hash-set layout they replaced (reconstructed here as
// in-binary reference arms).  The acceptance bar is >= 2x on the 16K
// row for every query pair.
//
// Wall-clock timing: same calibrated-loop caveat as the FP-Tree bench --
// the *_ns metrics are machine-local and not sim-deterministic.
#include <chrono>
#include <unordered_set>

#include "bench_common.hpp"
#include "cluster/node_soa.hpp"

using namespace eslurm;

namespace {

volatile std::size_t g_sink = 0;

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

/// The pre-refactor layout: one struct per node (including the heap
/// name string the old NodeInfo carried, which is what wrecked the
/// sweep's cache density) plus unordered_set side tables for the
/// membership queries.
struct NaiveNode {
  std::string name;
  cluster::NodeState state = cluster::NodeState::Up;
  SimTime state_since = 0;
  SimTime report_deadline = kTimeNever;
  std::uint32_t failures = 0;
  double risk = 0.0;
};

struct World {
  cluster::NodeSoa soa;
  cluster::NodeBitset compute, believed_down, drained, scratch;
  std::vector<NaiveNode> naive;
  std::unordered_set<net::NodeId> naive_down, naive_drained;

  explicit World(std::size_t n, double down_frac, double drain_frac)
      : soa(n), compute(n), believed_down(n), drained(n), scratch(n), naive(n) {
    compute.set_all();
    Rng rng(99);
    for (net::NodeId id = 0; id < n; ++id) {
      naive[id].name = "node-" + std::to_string(id);
      // Deadlines armed for every node; ~5% already overdue at probe
      // time (now = 1000) so the sweep has hits to count.
      const SimTime deadline = rng.chance(0.05) ? 500 : 2000;
      soa.report_deadline[id] = deadline;
      naive[id].report_deadline = deadline;
      if (rng.chance(down_frac)) {
        soa.apply_state(id, cluster::NodeState::Down, 100);
        naive[id].state = cluster::NodeState::Down;
        ++naive[id].failures;
      } else if (rng.chance(drain_frac)) {
        drained.set(id);
        naive_drained.insert(id);
      }
      // The RM's believed-down view lags the truth on ~1% of nodes, so
      // the health-refresh arms have real transitions to report.
      if (rng.chance(0.01)) {
        believed_down.set(id);
        naive_down.insert(id);
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("node_soa", "Sec. III",
                         "SoA bitset scans vs per-node objects (RM hot sweeps)",
                         bench::Uses{}, argc, argv);
  const double min_seconds = harness.smoke() ? 0.02 : 0.2;
  const std::vector<std::size_t> sizes =
      harness.smoke() ? std::vector<std::size_t>{16384}
                      : std::vector<std::size_t>{4096, 16384, 65536, 131072};

  Table table({"n", "query", "SoA (ns)", "naive (ns)", "speedup"});
  for (const std::size_t n : sizes) {
    World world(n, 0.02, 0.01);

    // 1. heartbeat sweep: count overdue report deadlines (the periodic
    // monitoring scan).  SoA touches one contiguous SimTime array; the
    // naive arm strides through 64-byte node structs for the same field.
    const double soa_alive = time_ns(
        [&] { g_sink = g_sink + world.soa.overdue_reports(1000); }, min_seconds);
    const double naive_alive = time_ns(
        [&] {
          std::size_t overdue = 0;
          for (net::NodeId id = 0; id < n; ++id) {
            const SimTime deadline = world.naive[id].report_deadline;
            if (deadline != kTimeNever && deadline < 1000) ++overdue;
          }
          g_sink = g_sink + overdue;
        },
        min_seconds);

    // 2. health refresh: diff the believed-down view against the live
    // truth and report each transition (the refresh_health_view sweep).
    const double soa_refresh = time_ns(
        [&] {
          world.scratch.assign_and_not(world.compute, world.soa.up);
          std::size_t transitions = 0;
          world.believed_down.for_each_diff(world.scratch,
                                            [&](net::NodeId, bool) { ++transitions; });
          g_sink = g_sink + transitions;
        },
        min_seconds);
    const double naive_refresh = time_ns(
        [&] {
          std::size_t transitions = 0;
          for (net::NodeId id = 0; id < n; ++id) {
            const bool down = world.naive[id].state != cluster::NodeState::Up;
            if (down != (world.naive_down.count(id) > 0)) ++transitions;
          }
          g_sink = g_sink + transitions;
        },
        min_seconds);

    // 3. schedulable count: compute & ~down & ~drained (admission check).
    const double soa_sched = time_ns(
        [&] {
          const auto& c = world.compute.words();
          const auto& d = world.believed_down.words();
          const auto& m = world.drained.words();
          std::size_t total = 0;
          for (std::size_t w = 0; w < c.size(); ++w)
            total += static_cast<std::size_t>(
                __builtin_popcountll(c[w] & ~d[w] & ~m[w]));
          g_sink = g_sink + total;
        },
        min_seconds);
    const double naive_sched = time_ns(
        [&] {
          std::size_t total = 0;
          for (net::NodeId id = 0; id < n; ++id)
            if (world.naive_down.count(id) == 0 &&
                world.naive_drained.count(id) == 0)
              ++total;
          g_sink = g_sink + total;
        },
        min_seconds);

    const auto emit = [&](const char* query, double soa_ns, double naive_ns,
                          const char* metric) {
      table.add_row({std::to_string(n), query, format_double(soa_ns, 4),
                     format_double(naive_ns, 4),
                     format_double(naive_ns / soa_ns, 3)});
      harness.record_point(
          std::string(query) + " n=" + std::to_string(n),
          {{"n", std::to_string(n)}, {"query", query}},
          {{std::string(metric) + "_soa_ns", soa_ns},
           {std::string(metric) + "_naive_ns", naive_ns},
           {std::string(metric) + "_speedup", naive_ns / soa_ns}});
    };
    emit("heartbeat sweep", soa_alive, naive_alive, "heartbeat_sweep");
    emit("health refresh", soa_refresh, naive_refresh, "health_refresh");
    emit("schedulable count", soa_sched, naive_sched, "schedulable");
  }
  table.print();
  std::printf("\n[expect: >= 2x on every query at 16K nodes; the gap widens\n"
              " with n as the naive arms pay a hash probe per node]\n");
  return harness.finish();
}
