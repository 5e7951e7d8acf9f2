// Event-core microbenchmark: the schedule/cancel/execute churn every
// other bench sits on.  Not a paper figure -- this tracks the engine's
// events/sec trajectory from PR 5 (slab-pooled event core) onward, so a
// regression in the hot path shows up here before it shows up as minutes
// added to bench_fig9_fullscale.
//
// Patterns:
//   churn     -- each event reschedules itself a few steps ahead; pure
//                schedule+execute throughput at a steady queue depth.
//                Run at 64 chains, and at 256 and 65,536 chains to show
//                how the cost of an event grows with queue depth (the
//                world-size-independence target: 64K <= 2x 256).
//   watchdog  -- arm a far-future watchdog, do a step of work, cancel and
//                re-arm: the tree-broadcast / RM-subtask pattern that
//                stresses cancel() and lazy-queue compaction.
//   fanout    -- one event schedules a burst of children (master fan-out
//                shape): pool growth + drain, bursty queue depth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "sim/engine.hpp"

using namespace eslurm;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Self-rescheduling chains: `chains` events live at any instant, each
/// hop schedules the next.  Returns events/sec.
double churn(bench::Harness& harness, std::uint64_t total_events, int chains) {
  sim::Engine engine;
  std::uint64_t remaining = total_events;
  struct Driver {
    sim::Engine& engine;
    std::uint64_t& remaining;
    SimTime period;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      engine.schedule_after(period, [this] { fire(); });
    }
  };
  std::vector<Driver> drivers;
  drivers.reserve(static_cast<std::size_t>(chains));
  for (int c = 0; c < chains; ++c)
    drivers.push_back(Driver{engine, remaining, microseconds(10 + c)});

  const auto t0 = std::chrono::steady_clock::now();
  for (Driver& driver : drivers) driver.fire();
  engine.run();
  const double secs = wall_seconds(t0);
  harness.record_events(engine.executed_events());
  return static_cast<double>(engine.executed_events()) / secs;
}

/// Arm-and-cancel: every work step arms a far-future watchdog and
/// cancels the previous one -- nearly every armed event dies young.
double watchdog(bench::Harness& harness, std::uint64_t total_events) {
  sim::Engine engine;
  std::uint64_t remaining = total_events;
  struct Driver {
    sim::Engine& engine;
    std::uint64_t& remaining;
    sim::EventId armed = sim::kInvalidEvent;
    void fire() {
      if (armed != sim::kInvalidEvent) engine.cancel(armed);
      if (remaining == 0) return;
      --remaining;
      armed = engine.schedule_after(hours(10), [] {});
      engine.schedule_after(microseconds(25), [this] { fire(); });
    }
  };
  Driver driver{engine, remaining};
  const auto t0 = std::chrono::steady_clock::now();
  driver.fire();
  engine.run();
  const double secs = wall_seconds(t0);
  harness.record_events(engine.executed_events());
  // Throughput counts scheduled events (executed + cancelled): the cost
  // paid per iteration includes the watchdog that never fires.
  return static_cast<double>(2 * total_events) / secs;
}

/// Bursty fan-out: each generation event schedules `width` children; the
/// children are leaves, the next generation re-arms.
double fanout(bench::Harness& harness, std::uint64_t generations, int width) {
  sim::Engine engine;
  std::uint64_t remaining = generations;
  struct Driver {
    sim::Engine& engine;
    std::uint64_t& remaining;
    int width;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      for (int i = 0; i < width; ++i)
        engine.schedule_after(microseconds(5 + i), [] {});
      engine.schedule_after(milliseconds(1), [this] { fire(); });
    }
  };
  Driver driver{engine, remaining, width};
  const auto t0 = std::chrono::steady_clock::now();
  driver.fire();
  engine.run();
  const double secs = wall_seconds(t0);
  harness.record_events(engine.executed_events());
  return static_cast<double>(engine.executed_events()) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("engine", "Engine",
                         "event-core schedule/cancel/run throughput", argc,
                         argv);
  const std::uint64_t n = harness.smoke() ? 200'000 : 4'000'000;

  const double churn_eps = churn(harness, n, 64);
  harness.record_point("churn", {{"pattern", "churn"}, {"chains", "64"}},
                       {{"events_per_sec", churn_eps}});

  // Depth scaling: the same kernel with more events live at once.  Each
  // chain makes at least 16 hops, so the deep point measures steady
  // churn rather than the initial fill.
  struct DepthPoint {
    const char* label;
    int chains;
    double eps = 0.0;
  };
  DepthPoint depths[] = {{"churn_256", 256}, {"churn_64k", 65'536}};
  for (DepthPoint& depth : depths) {
    const std::uint64_t events =
        std::max<std::uint64_t>(n, 16 * static_cast<std::uint64_t>(depth.chains));
    depth.eps = churn(harness, events, depth.chains);
    harness.record_point(depth.label,
                         {{"pattern", "churn"}, {"chains", std::to_string(depth.chains)}},
                         {{"events_per_sec", depth.eps}, {"ns_per_event", 1e9 / depth.eps}});
  }

  const double watchdog_eps = watchdog(harness, n / 2);
  harness.record_point("watchdog", {{"pattern", "watchdog"}},
                       {{"events_per_sec", watchdog_eps}});

  const double fanout_eps = fanout(harness, n / 64, 64);
  harness.record_point("fanout", {{"pattern", "fanout"}, {"width", "64"}},
                       {{"events_per_sec", fanout_eps}});

  Table table({"pattern", "events/sec", "ns/event"});
  auto add_row = [&table](const std::string& pattern, double eps) {
    table.add_row({pattern, format_double(eps, 4), format_double(1e9 / eps, 4)});
  };
  add_row("churn (64 chains)", churn_eps);
  for (const DepthPoint& depth : depths)
    add_row("churn (" + std::to_string(depth.chains) + " chains)", depth.eps);
  add_row("watchdog arm+cancel", watchdog_eps);
  add_row("fanout x64", fanout_eps);
  table.print();
  std::printf("churn depth ratio (65,536 / 256 chains, ns per event): %.2f  [target <= 2]\n",
              depths[0].eps / depths[1].eps);
  return 0;
}
