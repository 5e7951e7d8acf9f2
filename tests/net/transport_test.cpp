// Behavioural tests of the reliable transport: retry/backoff, permanent
// failure, exactly-once processing per send, and timing-neutrality
// without chaos.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/chaos.hpp"

namespace eslurm::net {
namespace {

struct TransportFixture : ::testing::Test {
  sim::Engine engine;
  LinkModel model;
  TransportFixture() { model.jitter_frac = 0.0; }  // exact timing in tests

  Network make(std::size_t n) { return Network(engine, n, model, Rng(1)); }

  /// Deterministic retransmit schedule for timing assertions.
  static TransportOptions exact_options() {
    TransportOptions opts;
    opts.jitter_frac = 0.0;
    return opts;
  }
};

TEST_F(TransportFixture, DeliversPayloadAndAcks) {
  Network net = make(2);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  bool ok = false;
  net.register_handler(7, [&](NodeId, const Message& m) {
    EXPECT_EQ(m.src, 0u);
    EXPECT_EQ(m.type, 7);
    EXPECT_EQ(m.body<int>(), 41);
    ++got;
  });
  Message msg;
  msg.type = 7;
  msg.payload = 41;
  transport.send(0, 1, std::move(msg), 0, [&](bool result) { ok = result; });
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(transport.sends(), 1u);
  EXPECT_EQ(transport.retransmits(), 0u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
  EXPECT_EQ(transport.duplicates_suppressed(), 0u);
}

TEST_F(TransportFixture, NoChaosTimingMatchesRawSend) {
  // The bit-identity contract that let the RM migrate with transport on
  // by default: with jitter enabled and no chaos, a transport send acks
  // at exactly the time the raw send would (the frame is the caller's
  // message, no retransmit timers, no extra rng draws).
  LinkModel jittery;  // default jitter_frac > 0
  auto run_raw = [&] {
    sim::Engine world;
    Network net(world, 2, jittery, Rng(1));
    SimTime done = 0;
    net.send(0, 1, Message{.type = 7}, 0, [&](bool) { done = world.now(); });
    world.run();
    return done;
  };
  auto run_transport = [&] {
    sim::Engine world;
    Network net(world, 2, jittery, Rng(1));
    ReliableTransport transport(net, Rng(9));
    SimTime done = 0;
    transport.send(0, 1, Message{.type = 7}, 0,
                   [&](bool) { done = world.now(); });
    world.run();
    return done;
  };
  EXPECT_EQ(run_raw(), run_transport());
}

TEST_F(TransportFixture, RetriesUntilAFlakyPeerComesBack) {
  Network net = make(2);
  std::vector<bool> up{true, false};
  net.set_liveness([&](NodeId id) { return up[id]; });
  ReliableTransport transport(net, Rng(9), exact_options());
  engine.schedule_at(seconds(2), [&] { up[1] = true; });
  int got = 0;
  bool ok = false;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  transport.send(0, 1, Message{.type = 7}, seconds(1),
                 [&](bool result) { ok = result; });
  engine.run();
  // Attempt 1 at t=0 fails at 1.0; attempt 2 at 1.5 fails at 2.5 (the
  // node was still down when the frame arrived); attempt 3 at 3.5 lands.
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(transport.retransmits(), 2u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
}

TEST_F(TransportFixture, PermanentFailureAfterRetryCapAtWorstCaseTime) {
  Network net = make(2);
  net.set_liveness([](NodeId id) { return id != 1; });
  TransportOptions opts = exact_options();
  opts.max_retries = 2;
  ReliableTransport transport(net, Rng(9), opts);
  bool ok = true;
  SimTime completed_at = 0;
  transport.send(0, 1, Message{.type = 7}, seconds(1), [&](bool result) {
    ok = result;
    completed_at = engine.now();
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(transport.retransmits(), 2u);
  EXPECT_EQ(transport.permanent_failures(), 1u);
  // 3 attempts x 1s timeout + backoffs 0.5s + 1.0s = 4.5s, which is
  // exactly what worst_case_send_time promises watchdog layers.
  EXPECT_EQ(completed_at, worst_case_send_time(opts, seconds(1)));
}

TEST_F(TransportFixture, WorstCaseSendTimeBoundsTheSchedule) {
  TransportOptions opts;  // jittered defaults
  const SimTime worst = worst_case_send_time(opts, seconds(1));
  EXPECT_GE(worst, seconds(1) * (opts.max_retries + 1));
  TransportOptions more = opts;
  more.max_retries = opts.max_retries + 3;
  EXPECT_GT(worst_case_send_time(more, seconds(1)), worst);
}

TEST_F(TransportFixture, DedupSuppressesChaosDuplicates) {
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  for (int i = 0; i < 3; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  // Every frame reached the receiver twice; the handler saw each once.
  EXPECT_EQ(got, 3);
  EXPECT_EQ(transport.duplicates_suppressed(), 3u);
}

TEST_F(TransportFixture, ExactlyOnceProcessingUnderHeavyLoss) {
  // 50% drop on every leg: messages are lost, acks are lost (so frames
  // the receiver already processed get retransmitted), yet each logical
  // send must be processed exactly once and eventually succeed.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.5);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  TransportOptions opts;
  // An attempt fails when its message leg or its ack leg is dropped
  // (p = 0.75 here); 40 retries push permanent-failure odds below 1e-5.
  opts.max_retries = 40;
  ReliableTransport transport(net, Rng(9), opts);
  constexpr int kMessages = 50;
  std::map<int, int> seen;
  int completions = 0;
  net.register_handler(7, [&](NodeId, const Message& m) { ++seen[m.body<int>()]; });
  for (int i = 0; i < kMessages; ++i) {
    Message msg;
    msg.type = 7;
    msg.payload = i;
    transport.send(0, 1, std::move(msg), seconds(1), [&](bool ok) {
      EXPECT_TRUE(ok);
      ++completions;
    });
  }
  engine.run();
  EXPECT_EQ(completions, kMessages);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [id, count] : seen)
    EXPECT_EQ(count, 1) << "message " << id << " processed " << count << "x";
  EXPECT_GT(transport.retransmits(), 0u);
  // A retransmit after a lost ack re-delivers a processed frame; at 50%
  // loss over 50 messages that case occurs and must be suppressed.
  EXPECT_GT(transport.duplicates_suppressed(), 0u);
  EXPECT_EQ(transport.permanent_failures(), 0u);
}

TEST_F(TransportFixture, ChannelsKeepIndependentSequenceSpaces) {
  // Sends on (0->1, type 7), (0->1, type 8) and (2->1, type 7) are
  // distinct sends: none may be taken for a repeat of another.
  Network net = make(3);
  ReliableTransport transport(net, Rng(9));
  int type7 = 0, type8 = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++type7; });
  net.register_handler(8, [&](NodeId, const Message&) { ++type8; });
  for (int i = 0; i < 4; ++i) {
    transport.send(0, 1, Message{.type = 7});
    transport.send(0, 1, Message{.type = 8});
    transport.send(2, 1, Message{.type = 7});
  }
  engine.run();
  EXPECT_EQ(type7, 8);  // 4 from node 0 + 4 from node 2
  EXPECT_EQ(type8, 4);
  EXPECT_EQ(transport.duplicates_suppressed(), 0u);
}

TEST_F(TransportFixture, RetransmitAfter130NewerFramesIsProcessedOnce) {
  // A retransmit is recognised however many newer sends overtook it on
  // the same (type, sender, receiver): a short partition drops only the
  // first frame's ack, then 130 more sends land before its backoff
  // expires, and its retransmit still reaches the handler's type as a
  // repeat.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  // Cuts 0 <-> 1 while only the first frame's ack leg leaves (the frame
  // is delivered at 110 us); the other sends start after the cut heals.
  plan.partition(microseconds(100), microseconds(100), {0}, {1});
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9), exact_options());
  std::vector<int> seen;
  net.register_handler(7, [&](NodeId, const Message& m) { seen.push_back(m.body<int>()); });
  auto send = [&](int id) {
    Message msg;
    msg.type = 7;
    msg.payload = id;
    transport.send(0, 1, std::move(msg), seconds(1));
  };
  send(0);
  for (int i = 1; i <= 130; ++i)
    engine.schedule_at(milliseconds(1) + i * milliseconds(5), [&send, i] { send(i); });
  engine.run();
  // Frame 0's ack was lost, so it was sent twice; the retransmit (at
  // 1.5 s) arrived after all 130 newer frames and was not re-processed.
  EXPECT_EQ(transport.retransmits(), 1u);
  EXPECT_EQ(transport.duplicates_suppressed(), 1u);
  ASSERT_EQ(seen.size(), 131u);
  for (int i = 0; i <= 130; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST_F(TransportFixture, LargeWindowNeverWrapsUnderChaosDuplicates) {
  // 200 sends on one (type, sender, receiver), each duplicated on the
  // wire: every duplicate is suppressed.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  for (int i = 0; i < 200; ++i) transport.send(0, 1, Message{.type = 7});
  engine.run();
  EXPECT_EQ(got, 200);
  EXPECT_EQ(transport.duplicates_suppressed(), 200u);
}

TEST_F(TransportFixture, UnregisterStopsDelivery) {
  Network net = make(2);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  net.unregister_handler(7);
  bool ok = false;
  transport.send(0, 1, Message{.type = 7}, 0, [&](bool result) { ok = result; });
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_TRUE(ok);  // unregistered types are dropped but still acked
}

TEST_F(TransportFixture, BadEndpointOrTypeThrowsWithoutTouchingState) {
  Network net = make(3);
  ReliableTransport transport(net, Rng(9));
  int got = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  EXPECT_THROW(transport.send(9, 1, Message{.type = 7}), std::out_of_range);
  EXPECT_THROW(transport.send(0, 9, Message{.type = 7}), std::out_of_range);
  EXPECT_THROW(transport.send(0, 1, Message{.type = -1}), std::out_of_range);
  EXPECT_EQ(transport.sends(), 0u);
  EXPECT_EQ(net.total_messages(), 0u);
  transport.send(0, 1, Message{.type = 7});
  engine.run();
  EXPECT_EQ(transport.sends(), 1u);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.in_flight_sends(), 0u);
}

TEST_F(TransportFixture, TypeHandlerReceivesSelfAndPerChannelSeqs) {
  Network net = make(3);
  ReliableTransport transport(net, Rng(9));
  std::vector<std::pair<NodeId, NodeId>> seen;  // (self, src)
  net.register_handler(7, [&](NodeId self, const Message& m) {
    EXPECT_EQ(m.type, 7);
    seen.emplace_back(self, m.src);
  });
  transport.send(0, 1, Message{.type = 7});
  transport.send(0, 1, Message{.type = 7});
  transport.send(0, 2, Message{.type = 7});
  transport.send(2, 0, Message{.type = 7});
  engine.run();
  std::sort(seen.begin(), seen.end());
  const std::vector<std::pair<NodeId, NodeId>> expected{{0, 2}, {1, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(seen, expected);
}

TEST_F(TransportFixture, FrameAfterTransportDestroyedIsDropped) {
  // The transport dies between a send's first delivery and its
  // duplicated leg: the detached op still remembers it was processed, so
  // the late copy reaches the (still registered) handler's type and is
  // dropped.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(0.0, /*duplicate=*/1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  int got = 0;
  net.register_handler(7, [&](NodeId, const Message&) { ++got; });
  auto transport = std::make_unique<ReliableTransport>(net, Rng(9));
  bool ok = false;
  transport->send(0, 1, Message{.type = 7}, 0, [&](bool result) { ok = result; });
  // The first copy is processed at 110 us; its duplicate queues behind
  // it in node 1's receive serializer until 125 us.
  engine.run_until(microseconds(115));
  ASSERT_EQ(got, 1);
  EXPECT_EQ(net.messages_received(1), 1u);
  transport.reset();
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.messages_received(1), 2u);  // the duplicate was delivered, not processed
  EXPECT_TRUE(ok);
}

TEST_F(TransportFixture, SendInFlightWhenTransportIsDestroyedCompletesOnce) {
  // The transport dies while its send is in flight: the send's op is
  // detached and finishes as a single-attempt send, whose callback fires
  // exactly once -- on a clean network with the delivery, under a
  // drop-everything plan with the failure.
  for (const bool drop_all : {false, true}) {
    SCOPED_TRACE(drop_all ? "drop everything" : "clean network");
    sim::Engine world;
    Network net(world, 2, model, Rng(1));
    ChaosInjector chaos(world, 2, Rng(7));
    if (drop_all) {
      ChaosPlan plan;
      plan.ambient(1.0);
      chaos.set_plan(std::move(plan));
      net.set_chaos(&chaos);
    }
    int calls = 0;
    bool last = !drop_all;
    {
      ReliableTransport transport(net, Rng(9));
      transport.send(0, 1, Message{.type = 7}, seconds(1), [&](bool ok) {
        ++calls;
        last = ok;
      });
      EXPECT_EQ(net.in_flight_sends(), 1u);
    }
    world.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(last, !drop_all);
    EXPECT_EQ(net.in_flight_sends(), 0u);
    EXPECT_EQ(net.total_messages(), 1u);  // one attempt, no retransmit
  }
}

TEST_F(TransportFixture, TransportDestroyedDuringBackoffRelaunchesOnce) {
  // Destroyed while a failed attempt waits out its backoff: the pending
  // relaunch still happens, as a final single attempt.
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(1.0);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  int calls = 0;
  auto transport = std::make_unique<ReliableTransport>(net, Rng(9), exact_options());
  transport->send(0, 1, Message{.type = 7}, seconds(1), [&](bool ok) {
    EXPECT_FALSE(ok);
    ++calls;
  });
  engine.run_until(milliseconds(1200));  // attempt 1 failed at 1.0 s
  EXPECT_EQ(transport->retransmits(), 1u);
  transport.reset();
  engine.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.in_flight_sends(), 0u);
}

TEST_F(TransportFixture, RetransmitsReuseOneSendRecord) {
  // Drop everything for the first 4 s: with a 1 s timeout and 0.5/1/2 s
  // backoffs the attempts start at 0, 1.5, 3.5 and 6.5 s, so k = 3 are
  // lost and the fourth lands.  Every attempt runs on the same op.
  constexpr std::uint64_t kDropped = 3;
  Network net = make(2);
  ChaosInjector chaos(engine, 2, Rng(7));
  ChaosPlan plan;
  plan.ambient(1.0).duration = seconds(4);
  chaos.set_plan(std::move(plan));
  net.set_chaos(&chaos);
  ReliableTransport transport(net, Rng(9), exact_options());
  int got = 0;
  int calls = 0;
  net.register_handler(7, [&](NodeId, const Message& m) {
    EXPECT_EQ(m.body<int>(), 41);
    ++got;
  });
  std::vector<std::size_t> in_flight;
  for (const SimTime probe : {milliseconds(1200), milliseconds(3000), milliseconds(5000)})
    engine.schedule_at(probe, [&] { in_flight.push_back(net.in_flight_sends()); });
  Message msg;
  msg.type = 7;
  msg.payload = 41;
  transport.send(0, 1, std::move(msg), seconds(1), [&](bool ok) {
    EXPECT_TRUE(ok);
    ++calls;
  });
  engine.run();
  EXPECT_EQ(in_flight, (std::vector<std::size_t>{1, 1, 1}));  // held through each backoff
  EXPECT_EQ(net.in_flight_sends(), 0u);
  EXPECT_EQ(net.send_op_pool_capacity(), 1u);
  EXPECT_EQ(transport.retransmits(), kDropped);
  EXPECT_EQ(net.failed_sends(), kDropped);
  EXPECT_EQ(net.total_messages(), kDropped + 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace eslurm::net
