// Behavioural tests of the chaos injector: drop / duplicate / delay
// fault modes, timed partitions, and schedule determinism.
#include "net/chaos.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "net/network.hpp"

namespace eslurm::net {
namespace {

struct ChaosFixture : ::testing::Test {
  sim::Engine engine;
  LinkModel model;
  ChaosFixture() { model.jitter_frac = 0.0; }  // exact timing in tests

  Network make(std::size_t n) { return Network(engine, n, model, Rng(1)); }
};

TEST_F(ChaosFixture, ParamsAnyGatesConstruction) {
  ChaosParams params;
  EXPECT_FALSE(params.any());
  params.drop_prob = 0.1;
  EXPECT_TRUE(params.any());
  params = {};
  params.duplicate_prob = 0.1;
  EXPECT_TRUE(params.any());
  params = {};
  params.delay_spike_prob = 0.1;
  EXPECT_TRUE(params.any());
  params = {};
  params.partition_start_s = 10.0;  // needs a duration too
  EXPECT_FALSE(params.any());
  params.partition_duration_s = 5.0;
  EXPECT_TRUE(params.any());
}

TEST_F(ChaosFixture, EmptyPlanNeverInterferes) {
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  net.set_chaos(&chaos);
  int got = 0;
  bool ok = false;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  net.send(0, 1, Message{.type = 7}, 0, [&](bool result) { ok = result; });
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(chaos.dropped(), 0u);
  EXPECT_EQ(chaos.duplicated(), 0u);
  EXPECT_EQ(chaos.delayed(), 0u);
}

TEST_F(ChaosFixture, CertainDropFailsTheSenderAtItsTimeout) {
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  int got = 0;
  bool ok = true;
  SimTime completed_at = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  net.send(0, 1, Message{.type = 7}, seconds(3), [&](bool result) {
    ok = result;
    completed_at = engine.now();
  });
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_FALSE(ok);  // same surface as a dead peer: timeout
  EXPECT_EQ(completed_at, seconds(3));
  EXPECT_EQ(chaos.dropped(), 1u);
  EXPECT_EQ(net.failed_sends(), 1u);
}

TEST_F(ChaosFixture, CertainDuplicationDeliversTwiceButAcksOnce) {
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  int got = 0;
  int completions = 0;
  net.register_handler(7, [&](NodeId, const Message& m) {
    EXPECT_EQ(m.body<int>(), 41);
    ++got;
  });
  Message msg;
  msg.type = 7;
  msg.payload = 41;
  net.send(0, 1, msg, 0, [&](bool result) {
    EXPECT_TRUE(result);
    ++completions;
  });
  engine.run();
  EXPECT_EQ(got, 2);          // the receiver processes the frame twice
  EXPECT_EQ(completions, 1);  // but the sender sees exactly one ack
  EXPECT_GE(chaos.duplicated(), 1u);
}

TEST_F(ChaosFixture, DelaySpikesStretchDelivery) {
  SimTime baseline = 0;
  {
    sim::Engine clean_engine;
    Network net(clean_engine, 2, model, Rng(1));
    net.send(0, 1, Message{.type = 7}, 0,
             [&](bool) { baseline = clean_engine.now(); });
    clean_engine.run();
  }
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, 0.0, /*delay_spike=*/1.0, /*delay_mean=*/seconds(10));
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  SimTime spiked = 0;
  net.send(0, 1, Message{.type = 7}, minutes(5),
           [&](bool) { spiked = engine.now(); });
  engine.run();
  EXPECT_GT(spiked, baseline);
  EXPECT_GE(chaos.delayed(), 1u);
}

TEST_F(ChaosFixture, PartitionCutsOnlyCrossingTrafficDuringItsWindow) {
  Network net = make(3);
  ChaosInjector chaos(engine, 3, Rng(7));
  ChaosPlan plan;
  plan.partition(seconds(10), seconds(10), {0}, {1});  // node 2 is outside
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  for (MessageType t = 1; t <= 4; ++t) net.register_handler(t, [](NodeId, const Message&) {});

  std::optional<bool> before, inside, inside_outside, outside_pair, after;
  net.send(0, 1, Message{.type = 1}, seconds(1),
           [&](bool ok) { before = ok; });
  engine.schedule_at(seconds(15), [&] {
    net.send(0, 1, Message{.type = 2}, seconds(1),
             [&](bool ok) { inside = ok; });
    net.send(0, 2, Message{.type = 2}, seconds(1),
             [&](bool ok) { inside_outside = ok; });
    net.send(2, 1, Message{.type = 2}, seconds(1),
             [&](bool ok) { outside_pair = ok; });
  });
  engine.schedule_at(seconds(25), [&] {
    net.send(0, 1, Message{.type = 3}, seconds(1), [&](bool ok) { after = ok; });
  });
  engine.run();
  EXPECT_TRUE(before.value_or(false));
  EXPECT_FALSE(inside.value_or(true));           // crosses the cut
  EXPECT_TRUE(inside_outside.value_or(false));   // node 2 not partitioned
  EXPECT_TRUE(outside_pair.value_or(false));
  EXPECT_TRUE(after.value_or(false));  // the partition healed
  EXPECT_EQ(chaos.partitioned(), 1u);
  EXPECT_EQ(chaos.dropped(), 1u);  // partition drops count as drops too
}

TEST_F(ChaosFixture, IdenticalSeedsGiveBitIdenticalSchedules) {
  struct Tally {
    std::uint64_t dropped = 0, duplicated = 0, delayed = 0;
    int delivered = 0;
    SimTime finished = 0;
  };
  auto run_world = [this]() {
    Tally tally;
    sim::Engine world;
    Network net(world, 2, model, Rng(1));
    ChaosInjector chaos(world, 2, Rng(7));
    ChaosPlan plan;
    plan.ambient(0.3, 0.3, 0.3, seconds(1));
    chaos.set_plan(std::move(plan));
    net.set_chaos(&chaos);
    net.register_handler(7, [&](NodeId, const Message&) { ++tally.delivered; });
    for (int i = 0; i < 200; ++i)
      net.send(0, 1, Message{.type = 7}, seconds(2));
    world.run();
    tally.dropped = chaos.dropped();
    tally.duplicated = chaos.duplicated();
    tally.delayed = chaos.delayed();
    tally.finished = world.now();
    return tally;
  };
  const Tally a = run_world();
  const Tally b = run_world();
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_GT(a.dropped, 0u);  // the schedule actually fired
  EXPECT_GT(a.delivered, 0);
}

TEST_F(ChaosFixture, ChaosRngNeverPerturbsNetworkJitter) {
  // Same network seed, jitter on: a chaos injector that happens to make
  // no drop/dup/delay decisions must leave delivery timing untouched.
  LinkModel jittery;  // default jitter_frac > 0
  auto run_world = [&](bool with_chaos) {
    sim::Engine world;
    Network net(world, 2, jittery, Rng(1));
    ChaosInjector chaos(world, 2, Rng(7));
    if (with_chaos) net.set_chaos(&chaos);  // empty plan: no decisions
    SimTime done = 0;
    net.send(0, 1, Message{.type = 7}, 0, [&](bool) { done = world.now(); });
    world.run();
    return done;
  };
  EXPECT_EQ(run_world(false), run_world(true));
}

}  // namespace
}  // namespace eslurm::net
