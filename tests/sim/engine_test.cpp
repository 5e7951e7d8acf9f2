#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace eslurm::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(3), [&] { order.push_back(3); });
  engine.schedule_at(seconds(1), [&] { order.push_back(1); });
  engine.schedule_at(seconds(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), seconds(3));
}

TEST(Engine, FifoTieBreakAtEqualTime) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(1), [&] { order.push_back(1); });
  engine.schedule_at(seconds(1), [&] { order.push_back(2); });
  engine.schedule_at(seconds(1), [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  SimTime fired_at = -1;
  engine.schedule_at(seconds(5), [&] {
    engine.schedule_after(seconds(2), [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, seconds(7));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // double cancel reports failure
  engine.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, StaleHandleCannotCancelTheSlotsNextEvent) {
  Engine engine;
  bool second_ran = false;
  const EventId first = engine.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(engine.cancel(first));
  // The free list is LIFO: the next event reuses the cancelled slot.
  const EventId second = engine.schedule_at(seconds(2), [&] { second_ran = true; });
  ASSERT_EQ(second & 0xFFFFFF, first & 0xFFFFFF);
  EXPECT_FALSE(engine.cancel(first));
  engine.run();
  EXPECT_TRUE(second_ran);

  // The same holds for a slot freed by execution rather than by cancel.
  bool third_ran = false;
  const EventId third = engine.schedule_after(seconds(1), [&] { third_ran = true; });
  ASSERT_EQ(third & 0xFFFFFF, second & 0xFFFFFF);
  EXPECT_FALSE(engine.cancel(second));
  engine.run();
  EXPECT_TRUE(third_ran);
}

TEST(Engine, EventCannotCancelItselfFromItsCallback) {
  Engine engine;
  EventId self = kInvalidEvent;
  int runs = 0;
  bool cancelled = true;
  std::size_t pending_inside = 0;
  self = engine.schedule_at(seconds(1), [&] {
    ++runs;
    pending_inside = engine.pending_count();
    cancelled = engine.cancel(self);
  });
  engine.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(pending_inside, 1u);  // the running event counts as pending
  EXPECT_EQ(engine.pending_count(), 0u);
}

TEST(Engine, CancelTwiceOrAfterRunReturnsFalse) {
  Engine engine;
  const EventId pending = engine.schedule_at(seconds(2), [] {});
  const EventId ran = engine.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(engine.cancel(pending));
  EXPECT_FALSE(engine.cancel(pending));
  engine.run();
  EXPECT_FALSE(engine.cancel(ran));
  EXPECT_EQ(engine.executed_events(), 1u);
}

TEST(Engine, CancelRejectsInvalidAndOutOfRangeIds) {
  Engine engine;
  engine.schedule_at(seconds(1), [] {});
  engine.schedule_at(seconds(1), [] {});
  engine.run();  // both slots are now dead, their sequence reset to 0
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
  // A zero sequence never names an event, even where it equals a dead
  // slot's sequence.
  EXPECT_FALSE(engine.cancel(EventId{1}));
  // A slot index past the pool.
  EXPECT_FALSE(engine.cancel((EventId{1} << 24) | 7));
  EXPECT_FALSE(engine.cancel((EventId{1} << 24) | 0xFFFFFF));
  EXPECT_EQ(engine.event_pool_capacity(), 2u);
}

TEST(Engine, StaleRatioGaugeStaysInUnitRangeInsideCallbacks) {
  telemetry::Telemetry context;
  context.enable();
  Engine engine(&context);
  const telemetry::Gauge& gauge = context.metrics.gauge("sim.stale_ratio");
  double lowest = 0.0;
  double highest = 0.0;
  auto check = [&] {
    lowest = std::min(lowest, gauge.value());
    highest = std::max(highest, gauge.value());
  };
  // Phase 1: nothing is ever cancelled, past the periodic publish at
  // event 4096.
  for (int i = 0; i < 5000; ++i) engine.schedule_at(seconds(i), check);
  engine.run();
  // Phase 2: arm-and-cancel watchdogs from inside callbacks, so
  // compactions run mid-callback, with a few live events queued
  // alongside so a compacted queue is not empty.
  for (int i = 0; i < 4; ++i) engine.schedule_after(hours(20), check);
  struct Watchdog {
    Engine& engine;
    std::function<void()> check;
    EventId armed = kInvalidEvent;
    int left = 6000;
    void cycle() {
      check();
      if (armed != kInvalidEvent) engine.cancel(armed);
      if (--left == 0) return;
      armed = engine.schedule_after(hours(10), [] {});
      engine.schedule_after(microseconds(25), [this] { cycle(); });
    }
  };
  Watchdog dog{engine, check};
  engine.schedule_after(0, [&dog] { dog.cycle(); });
  engine.run();
  EXPECT_GT(engine.executed_events(), 8192u);
  EXPECT_GT(engine.compactions(), 0u);
  EXPECT_GE(lowest, 0.0);
  EXPECT_LE(highest, 1.0);
}

TEST(Engine, PastSchedulingThrows) {
  Engine engine;
  engine.schedule_at(seconds(2), [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(seconds(1), [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Engine, RunUntilStopsAtHorizonAndAdvancesClock) {
  Engine engine;
  int count = 0;
  engine.schedule_at(seconds(1), [&] { ++count; });
  engine.schedule_at(seconds(10), [&] { ++count; });
  engine.run_until(seconds(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(engine.now(), seconds(5));
  EXPECT_TRUE(engine.has_pending());
  engine.run_until(seconds(10));  // event exactly at the horizon runs
  EXPECT_EQ(count, 2);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) engine.schedule_after(seconds(1), recurse);
  };
  engine.schedule_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.executed_events(), 5u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.pending_count(), 0u);
}

/// Per-event record for the prefetch-hook tests.
struct HookRecord {
  int prefetches = 0;          ///< hook calls so far
  int prefetches_at_run = -1;  ///< hook calls seen when the event ran
};

/// A hooked event: `id` indexes its record; when `chains` > 0 it
/// schedules hop id + chains 10 s later, up to `events` hops.
struct HookedHop {
  Engine* engine;
  std::vector<HookRecord>* records;
  int id;
  int chains = 0;
  int events = 0;
  void operator()() const {
    (*records)[static_cast<std::size_t>(id)].prefetches_at_run =
        (*records)[static_cast<std::size_t>(id)].prefetches;
    if (chains > 0 && id + chains < events)
      engine->schedule_after(seconds(10), HookedHop{engine, records, id + chains, chains, events});
  }
  void prefetch() const { ++(*records)[static_cast<std::size_t>(id)].prefetches; }
};
static_assert(EventFn::stores_inline_v<HookedHop>);

TEST(Engine, PrefetchHookRunsBeforeItsEvent) {
  // Three interleaved chains, each hop rescheduling itself 10 s ahead --
  // behind the other chains' pending hops, so the entry under the queue
  // top when an event starts is still the next one to run when it ends.
  constexpr int kChains = 3;
  constexpr int kEvents = 300;
  Engine engine;
  std::vector<HookRecord> records(kEvents);
  engine.schedule_at(0, [] {});  // no event runs before the first hop
  for (int c = 0; c < kChains; ++c)
    engine.schedule_at(seconds(1 + c), HookedHop{&engine, &records, c, kChains, kEvents});
  engine.run();
  for (int id = 0; id < kEvents; ++id)
    EXPECT_GE(records[static_cast<std::size_t>(id)].prefetches_at_run, 1) << "event " << id;

  // A cancelled event's hook never runs after the cancel, even when the
  // callback that cancels it refills its slot with a new event.
  Engine second;
  std::vector<HookRecord> hooks(3);
  EventId victim = kInvalidEvent;
  int at_cancel = -1;
  second.schedule_at(0, [] {});
  second.schedule_at(seconds(1), [&] {
    ASSERT_TRUE(second.cancel(victim));
    at_cancel = hooks[1].prefetches;
    second.schedule_at(seconds(2), HookedHop{&second, &hooks, 2});
  });
  victim = second.schedule_at(seconds(2), HookedHop{&second, &hooks, 1});
  second.schedule_at(seconds(3), HookedHop{&second, &hooks, 0});
  second.run();
  EXPECT_EQ(hooks[1].prefetches, at_cancel);
  EXPECT_EQ(hooks[1].prefetches_at_run, -1);  // never ran
  EXPECT_GE(hooks[2].prefetches_at_run, 0);   // the replacement ran
  EXPECT_EQ(second.executed_events(), 4u);
}

TEST(Engine, CompactionDropsStaleEntriesFromLazyCancels) {
  Engine engine;
  // Arm-and-cancel far-future watchdogs: without compaction, each
  // cancelled entry lingers until its timestamp would have fired and the
  // queue grows without bound.
  std::vector<EventId> watchdogs;
  for (int i = 0; i < 1000; ++i)
    watchdogs.push_back(engine.schedule_at(hours(1000), [] {}));
  engine.schedule_at(seconds(1), [] {});
  for (const EventId id : watchdogs) EXPECT_TRUE(engine.cancel(id));
  EXPECT_GT(engine.compactions(), 0u);
  // Compaction keeps the queue near the live set; only sub-threshold
  // queues (< 64 entries) may still carry stale entries.
  EXPECT_LT(engine.queue_size(), 128u);
  EXPECT_EQ(engine.pending_count(), 1u);
  engine.run();
  EXPECT_EQ(engine.now(), seconds(1));  // live event still fires
  EXPECT_EQ(engine.queue_size(), 0u);
}

TEST(Engine, SmallQueuesAreNeverCompacted) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i) ids.push_back(engine.schedule_at(seconds(10), [] {}));
  for (const EventId id : ids) engine.cancel(id);
  EXPECT_EQ(engine.compactions(), 0u);
  engine.run();  // stale entries drain normally
  EXPECT_EQ(engine.queue_size(), 0u);
}

TEST(Engine, CompactionPreservesExecutionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(5), [&] { order.push_back(5); });
  engine.schedule_at(seconds(2), [&] { order.push_back(2); });
  std::vector<EventId> stale;
  for (int i = 0; i < 200; ++i)
    stale.push_back(engine.schedule_at(seconds(100), [] {}));
  engine.schedule_at(seconds(2), [&] { order.push_back(3); });  // FIFO peer
  engine.schedule_at(seconds(8), [&] { order.push_back(8); });
  for (const EventId id : stale) engine.cancel(id);
  EXPECT_GT(engine.compactions(), 0u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 8}));
}

TEST(Engine, PublishesTelemetryWhenEnabled) {
  telemetry::Telemetry context;
  context.enable();
  {
    Engine engine(&context);
    for (int i = 0; i < 5000; ++i) engine.schedule_at(seconds(i), [] {});
    engine.run();
    EXPECT_DOUBLE_EQ(context.metrics.counter("sim.events_executed").value(),
                     5000.0);
    // The engine drives the trace clock while it lives.
    EXPECT_EQ(context.tracer.now(), engine.now());
  }
  // Destroyed engine retracts its clock registration.
  EXPECT_EQ(context.tracer.now(), 0);
}

TEST(Engine, DisabledOrAbsentContextPublishesNothing) {
  telemetry::Telemetry disabled;  // never enabled
  {
    Engine engine(&disabled);
    engine.schedule_at(seconds(1), [] {});
    engine.run();
  }
  EXPECT_TRUE(disabled.metrics.empty());
  Engine bare;  // no context at all
  bare.schedule_at(seconds(1), [] {});
  bare.run();
  EXPECT_EQ(bare.telemetry(), nullptr);
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Engine engine;
  int fired = 0;
  PeriodicTask task(engine, seconds(10), [&] { ++fired; });
  task.start();
  engine.run_until(seconds(35));
  // t = 0, 10, 20, 30.
  EXPECT_EQ(fired, 4);
}

TEST(PeriodicTaskTest, FirstDelayRespected) {
  Engine engine;
  std::vector<SimTime> at;
  PeriodicTask task(engine, seconds(10), [&] { at.push_back(engine.now()); });
  task.start(seconds(5));
  engine.run_until(seconds(26));
  EXPECT_EQ(at, (std::vector<SimTime>{seconds(5), seconds(15), seconds(25)}));
}

TEST(PeriodicTaskTest, StopFromInsideCallback) {
  Engine engine;
  int fired = 0;
  PeriodicTask task(engine, seconds(1), [&] {
    if (++fired == 3) task.stop();
  });
  task.start();
  engine.run_until(seconds(100));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, RestartAfterStopResumesFromNow) {
  Engine engine;
  std::vector<SimTime> at;
  PeriodicTask task(engine, seconds(10), [&] { at.push_back(engine.now()); });
  task.start();
  engine.run_until(seconds(15));  // fires at 0, 10
  task.stop();
  EXPECT_FALSE(task.running());
  engine.run_until(seconds(40));  // nothing while stopped
  task.start(seconds(5));
  EXPECT_TRUE(task.running());
  engine.run_until(seconds(60));  // resumes at 45, 55
  EXPECT_EQ(at, (std::vector<SimTime>{0, seconds(10), seconds(45), seconds(55)}));
}

TEST(PeriodicTaskTest, StartWhileRunningIsANoOp) {
  Engine engine;
  int fired = 0;
  PeriodicTask task(engine, seconds(10), [&] { ++fired; });
  task.start();
  task.start();  // must not double-arm
  engine.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTaskTest, ZeroFirstDelayKeepsFifoOrderAtTimeZero) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(0, [&] { order.push_back(1); });
  PeriodicTask task(engine, seconds(10), [&] { order.push_back(2); });
  task.start(/*first_delay=*/0);
  engine.schedule_at(0, [&] { order.push_back(3); });
  engine.run_until(seconds(1));
  // All three run at t = 0 in scheduling order: the task's first firing
  // sits between the two plain events.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), seconds(1));
}

TEST(PeriodicTaskTest, DestructionCancelsPending) {
  Engine engine;
  int fired = 0;
  {
    PeriodicTask task(engine, seconds(1), [&] { ++fired; });
    task.start();
  }
  engine.run_until(seconds(10));
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace eslurm::sim
