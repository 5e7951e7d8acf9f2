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
//   state     -- 65,536 churn chains whose events each update their
//                chain's own 192-byte record, the shape of a network leg
//                working on its send op.  Run plain, and hooked: the
//                event is a functor whose prefetch() touches the record,
//                so the engine starts loading it while the event before
//                it runs (target: hooked ns/event <= plain).
//   far_live  -- 256 churn chains beside 16,384 live events 1,000-2,000 s
//                ahead, each re-armed as it fires: sched_backlog's queue
//                shape (near traffic plus job ends hours ahead).  The
//                chains tick in milliseconds, so a full run spans enough
//                simulated time for the far events to fire.  The far
//                tier keeps them out of the heap, so the target is
//                ns/event close to churn_256.
//   watchdog  -- arm a far-future watchdog, do a step of work, cancel and
//                re-arm: the tree-broadcast / RM-subtask pattern that
//                stresses cancel() and lazy-queue compaction.
//   fanout    -- one event schedules a burst of children (master fan-out
//                shape): pool growth + drain, bursty queue depth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

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

/// Churn chains plus long-lived far events that re-arm themselves as
/// they fire; both stop re-arming once `total_events` are spent.
/// Returns events/sec.
double far_live(bench::Harness& harness, std::uint64_t total_events, int chains, int far) {
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
  drivers.reserve(static_cast<std::size_t>(chains + far));
  for (int c = 0; c < chains; ++c)
    drivers.push_back(Driver{engine, remaining, milliseconds(10 + c)});
  for (int f = 0; f < far; ++f)  // 1,000-2,000 s, spread over the range
    drivers.push_back(Driver{engine, remaining, seconds(1000) + milliseconds((f * 7919) % 1'000'000)});

  const auto t0 = std::chrono::steady_clock::now();
  for (Driver& driver : drivers) driver.fire();
  engine.run();
  const double secs = wall_seconds(t0);
  harness.record_events(engine.executed_events());
  return static_cast<double>(engine.executed_events()) / secs;
}

/// A chain's own state: 192 bytes on three whole cache lines.
struct alignas(64) ChainState {
  std::uint64_t words[24] = {};
};
static_assert(sizeof(ChainState) == 192);

struct StateWorld {
  sim::Engine engine;
  std::vector<ChainState> states;
  std::uint64_t remaining = 0;
};

/// One hop of a state chain: bumps a word on each line of the chain's
/// record and reschedules itself.  `Hooked` adds the prefetch hook;
/// without it the hop is exactly what a lambda capturing
/// {world, chain} would be.
template <bool Hooked>
struct StateHop {
  StateWorld* world;
  std::uint32_t chain;
  void operator()() const {
    ChainState& state = world->states[chain];
    for (std::size_t w = 0; w < 24; w += 8) ++state.words[w];
    if (world->remaining == 0) return;
    --world->remaining;
    world->engine.schedule_after(microseconds(10 + chain), StateHop{world, chain});
  }
  void prefetch() const
    requires Hooked
  {
    const char* line = reinterpret_cast<const char*>(&world->states[chain]);
    for (std::size_t offset = 0; offset < sizeof(ChainState); offset += 64)
      __builtin_prefetch(line + offset, /*rw=*/1);
  }
};

/// State chains; returns events/sec.
template <bool Hooked>
double state_churn(bench::Harness& harness, std::uint64_t total_events, int chains) {
  StateWorld world;
  world.states.resize(static_cast<std::size_t>(chains));
  world.remaining = total_events;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < chains; ++c) StateHop<Hooked>{&world, static_cast<std::uint32_t>(c)}();
  world.engine.run();
  const double secs = wall_seconds(t0);
  harness.record_events(world.engine.executed_events());
  return static_cast<double>(world.engine.executed_events()) / secs;
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
  bench::Harness harness("engine", "Engine", "event-core schedule/cancel/run throughput",
                         bench::Uses{}, argc, argv);
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

  const double far_live_eps = far_live(harness, n, 256, 16'384);
  harness.record_point("far_live",
                       {{"pattern", "far_live"}, {"chains", "256"}, {"far", "16384"}},
                       {{"events_per_sec", far_live_eps}, {"ns_per_event", 1e9 / far_live_eps}});

  // The engine's prefetch hook on a working set beyond the private
  // caches: the same 65,536 chains and hop count as churn_64k.  The two
  // variants run interleaved, five times each, and each point keeps its
  // fastest run, so the hooked/plain ratio is stable on a shared host.
  struct StatePoint {
    const char* label;
    double (*run)(bench::Harness&, std::uint64_t, int);
    double eps = 0.0;
  };
  StatePoint states[] = {{"state_64k", state_churn<false>},
                         {"state_64k_hooked", state_churn<true>}};
  constexpr int kStateChains = 65'536;
  for (int round = 0; round < 5; ++round)
    for (StatePoint& state : states)
      state.eps = std::max(state.eps, state.run(harness, std::max<std::uint64_t>(n, 16 * kStateChains),
                                                kStateChains));
  for (const StatePoint& state : states)
    harness.record_point(state.label,
                         {{"pattern", "state"}, {"chains", std::to_string(kStateChains)}},
                         {{"events_per_sec", state.eps}, {"ns_per_event", 1e9 / state.eps}});

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
  add_row("far_live (256 chains + 16,384 far)", far_live_eps);
  for (const StatePoint& state : states) add_row(state.label, state.eps);
  add_row("watchdog arm+cancel", watchdog_eps);
  add_row("fanout x64", fanout_eps);
  table.print();
  std::printf("churn depth ratio (65,536 / 256 chains, ns per event): %.2f  [target <= 2]\n",
              depths[0].eps / depths[1].eps);
  std::printf("far-tier ratio (far_live / churn_256, ns per event): %.2f\n",
              depths[0].eps / far_live_eps);
  std::printf("state hook ratio (hooked / plain, ns per event): %.2f  [target <= 1]\n",
              states[0].eps / states[1].eps);
  harness.check("simulated_events", harness.total_events() > 0,
                "the bench's worlds executed no events");
  return harness.finish();
}
