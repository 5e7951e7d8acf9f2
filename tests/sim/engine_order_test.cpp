// Order oracle and bounds for the engine's two-tier queue (a 4-ary heap
// for the current bucket, a hashed timing wheel for everything later).
//
// The oracle drives randomized schedule / cancel / step / run_until
// sequences, with callbacks that schedule and cancel in turn, and checks
// the executed (time, seq) stream against a brute-force reference: the
// sorted set of every pending entry.  Delays aim at the places a wheel
// can get wrong: the current bucket, the next one, exactly on a bucket
// edge and one tick either side, later laps, and times equal to an
// already pending event's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace eslurm::sim {
namespace {

/// The far tier's geometry (engine.hpp): 2^30 ns buckets, 512 to a lap.
/// The oracle uses it only to aim delays; under another geometry it
/// covers less, but its verdicts stay right.
constexpr SimTime kBucket = SimTime{1} << 30;
constexpr SimTime kLap = 512 * kBucket;

class Oracle {
 public:
  explicit Oracle(std::uint64_t seed) : rng_(seed) {
    engine_.set_exec_observer(&Oracle::observe, this);
  }

  Engine& engine() { return engine_; }
  std::size_t misordered() const { return misordered_; }
  std::size_t executed() const { return executed_; }
  std::size_t bound_violations() const { return bound_violations_; }
  std::size_t wrong_cancels() const { return wrong_cancels_; }
  const std::set<std::pair<SimTime, std::uint64_t>>& pending() const { return pending_; }

  /// A delay aimed at one of the wheel's edge cases.
  SimTime pick_delay() {
    const SimTime now = engine_.now();
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        return 0;
      case 1:  // same bucket, usually
        return rng_.uniform_int(0, kBucket - 1);
      case 2: {  // on a bucket edge, or one tick either side
        const SimTime edge = (now / kBucket + rng_.uniform_int(1, 3)) * kBucket;
        return std::max<SimTime>(0, edge - now + rng_.uniform_int(-1, 1));
      }
      case 3:  // the next bucket
        return kBucket + rng_.uniform_int(0, kBucket - 1);
      case 4:  // later in this lap
        return rng_.uniform_int(kBucket, kLap - 1);
      case 5:  // a lap ahead, exactly or one tick either side
        return rng_.uniform_int(1, 3) * kLap + rng_.uniform_int(-1, 1);
      case 6:  // a later lap, anywhere in it
        return rng_.uniform_int(1, 3) * kLap + rng_.uniform_int(0, kLap - 1);
      case 7:  // far laps: an idle gap the wheel must cross
        return rng_.uniform_int(50, 200) * kLap + rng_.uniform_int(0, kLap - 1);
      default: {  // the time of an event already scheduled, if still ahead
        if (times_.empty()) return 0;
        const SimTime t = times_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(times_.size()) - 1))];
        return t >= now ? t - now : 0;
      }
    }
  }

  void schedule() {
    const SimTime delay = pick_delay();
    const EventId id = engine_.schedule_after(delay, Fire{this});
    const std::uint64_t seq = id >> 24;
    const SimTime t = engine_.now() + delay;
    pending_.emplace(t, seq);
    time_of_[seq] = t;
    ids_.push_back(id);
    times_.push_back(t);
  }

  /// Cancels a handle issued earlier (often one that already ran or was
  /// cancelled) and checks the verdict against the reference.
  void cancel_random() {
    if (ids_.empty()) return;
    const EventId id = ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1))];
    const std::uint64_t seq = id >> 24;
    const auto it = pending_.find({time_of_[seq], seq});
    const bool expected = it != pending_.end();
    if (expected) pending_.erase(it);
    if (engine_.cancel(id) != expected) ++wrong_cancels_;
    // Compaction keeps both tiers near the live set after every cancel.
    if (engine_.queue_size() > 2 * engine_.pending_count() + 64) ++bound_violations_;
  }

  /// Between events, the engine's counts agree with the reference.
  void expect_counts() const {
    EXPECT_EQ(engine_.pending_count(), pending_.size());
    EXPECT_EQ(engine_.has_pending(), !pending_.empty());
    ASSERT_GE(engine_.queue_size(), engine_.pending_count());
    EXPECT_EQ(engine_.stale_entries(), engine_.queue_size() - engine_.pending_count());
  }

 private:
  /// Every event: sometimes schedules one or two more, sometimes cancels
  /// a handle (its own included).  Fewer than one child per event on
  /// average, so the population stays bounded.
  struct Fire {
    Oracle* oracle;
    void operator()() const {
      Oracle& o = *oracle;
      const std::int64_t roll = o.rng_.uniform_int(0, 9);
      if (roll < 4) o.schedule();
      if (roll < 1) o.schedule();
      if (roll >= 7) o.cancel_random();
    }
  };

  static void observe(void* ctx, SimTime time, std::uint64_t seq) {
    Oracle& o = *static_cast<Oracle*>(ctx);
    ++o.executed_;
    if (o.pending_.empty() || *o.pending_.begin() != std::make_pair(time, seq)) {
      ++o.misordered_;
      o.pending_.erase({time, seq});
      return;
    }
    o.pending_.erase(o.pending_.begin());
  }

  Engine engine_;
  Rng rng_;
  std::set<std::pair<SimTime, std::uint64_t>> pending_;  ///< (time, seq)
  std::unordered_map<std::uint64_t, SimTime> time_of_;   ///< seq -> time
  std::vector<EventId> ids_;
  std::vector<SimTime> times_;
  std::size_t executed_ = 0;
  std::size_t misordered_ = 0;
  std::size_t bound_violations_ = 0;
  std::size_t wrong_cancels_ = 0;
};

TEST(EngineOrder, RandomOperationsMatchASortedReference) {
  for (const std::uint64_t seed : {1u, 7u, 1009u, 424242u}) {
    SCOPED_TRACE(seed);
    Oracle oracle(seed);
    Engine& engine = oracle.engine();
    Rng ops(seed * 31 + 5);
    for (int op = 0; op < 20'000; ++op) {
      const std::int64_t roll = ops.uniform_int(0, 99);
      if (roll < 45) {
        oracle.schedule();
      } else if (roll < 65) {
        oracle.cancel_random();
      } else if (roll < 85) {
        const std::size_t before = oracle.executed();
        const bool any = !oracle.pending().empty();
        EXPECT_EQ(engine.step(), any);
        EXPECT_EQ(oracle.executed(), before + (any ? 1 : 0));
      } else {
        const SimTime horizon = engine.now() + oracle.pick_delay();
        engine.run_until(horizon);
        EXPECT_EQ(engine.now(), horizon);
        if (!oracle.pending().empty()) {
          EXPECT_GT(oracle.pending().begin()->first, horizon);
        }
      }
      oracle.expect_counts();
    }
    engine.run();
    oracle.expect_counts();
    EXPECT_TRUE(oracle.pending().empty());
    EXPECT_EQ(engine.queue_size(), 0u);
    EXPECT_EQ(oracle.misordered(), 0u);
    EXPECT_EQ(oracle.wrong_cancels(), 0u);
    EXPECT_EQ(oracle.bound_violations(), 0u);
    EXPECT_GT(oracle.executed(), 5'000u);  // the loop actually ran events
  }
}

TEST(EngineOrder, BucketEdgesLapsAndTiesRunInTimeThenFifoOrder) {
  Engine engine;
  std::vector<std::pair<SimTime, int>> ran;
  // The first entry parks three laps ahead at the index that 2 * kBucket
  // later shares: the nearer entry must still run on this lap.
  const SimTime times[] = {3 * kLap + 2 * kBucket + 7, kLap + 1, kBucket, 3 * kLap + 5,
                           kBucket - 1, kLap, kBucket + 1, kLap - 1, 0, kBucket, 2 * kBucket,
                           kLap, 3 * kLap + 5, 1, 2 * kBucket - 1};
  int tag = 0;
  for (const SimTime t : times) {
    const int mine = tag++;
    engine.schedule_at(t, [&ran, &engine, mine] { ran.emplace_back(engine.now(), mine); });
  }
  engine.run();
  std::vector<std::pair<SimTime, int>> expected;
  for (int i = 0; i < tag; ++i) expected.emplace_back(times[i], i);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(engine.queue_size(), 0u);
}

TEST(EngineOrder, RunUntilStopsShortOfAFarEventAcrossManyLaps) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(100 * kLap + 3, [&] { ++fired; });
  engine.run_until(40 * kLap);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), 40 * kLap);
  // A near event scheduled after the horizon still runs first.
  SimTime near_at = -1;
  engine.schedule_after(kBucket / 2, [&] { near_at = engine.now(); });
  engine.run_until(100 * kLap + 2);
  EXPECT_EQ(near_at, 40 * kLap + kBucket / 2);
  EXPECT_EQ(fired, 0);
  engine.run_until(100 * kLap + 3);  // exactly at the horizon: runs
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.has_pending());
}

TEST(EngineFarTier, ArmAndCancelStaysBoundedBehindLiveEventsALapAhead) {
  // 1,000 live events sit more than a lap ahead (job ends); a work
  // event every millisecond arms 8 watchdogs 200 s ahead and cancels the
  // previous 8 -- 100,000 arm/cancel pairs whose dead entries all land
  // in the wheel.  After every cancel both tiers together stay near the
  // live set.
  constexpr int kLive = 1'000;
  constexpr int kWork = 12'500;
  constexpr int kPerWork = 8;
  Engine engine;
  int live_fired = 0;
  for (int i = 0; i < kLive; ++i)
    engine.schedule_after(kLap + seconds(1) + milliseconds(97 * i), [&] { ++live_fired; });
  struct Work {
    Engine& engine;
    EventId armed[kPerWork] = {};
    int rounds = 0;
    std::size_t cancels = 0;
    std::size_t worst_excess = 0;  ///< max of queue_size - (2 * pending + 64), or 0
    void cycle() {
      for (EventId& id : armed) {
        if (id != kInvalidEvent) {
          EXPECT_TRUE(engine.cancel(id));
          ++cancels;
          const std::size_t cap = 2 * engine.pending_count() + 64;
          if (engine.queue_size() > cap)
            worst_excess = std::max(worst_excess, engine.queue_size() - cap);
        }
        id = rounds < kWork ? engine.schedule_after(seconds(200), [] {}) : kInvalidEvent;
      }
      if (rounds++ < kWork) engine.schedule_after(milliseconds(1), [this] { cycle(); });
    }
  };
  Work work{engine};
  engine.schedule_at(0, [&work] { work.cycle(); });
  engine.run();
  EXPECT_EQ(work.cancels, std::size_t{kWork} * kPerWork);
  EXPECT_EQ(work.worst_excess, 0u);
  EXPECT_GT(engine.compactions(), 0u);
  EXPECT_EQ(live_fired, kLive);
  EXPECT_EQ(engine.queue_size(), 0u);
}

}  // namespace
}  // namespace eslurm::sim
