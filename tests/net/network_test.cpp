#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "../util/time_series_oracle.hpp"

namespace eslurm::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Engine engine;
  LinkModel model;
  NetFixture() { model.jitter_frac = 0.0; }  // exact timing in tests

  Network make(std::size_t n) { return Network(engine, n, model, Rng(1)); }
};

TEST_F(NetFixture, DeliversToRegisteredHandler) {
  Network net = make(2);
  int got = 0;
  net.register_handler(7, [&](NodeId self, const Message& m) {
    EXPECT_EQ(self, 1u);
    EXPECT_EQ(m.src, 0u);
    EXPECT_EQ(m.body<int>(), 41);
    ++got;
  });
  Message msg;
  msg.type = 7;
  msg.payload = 41;
  bool completed = false;
  net.send(0, 1, msg, 0, [&](bool ok) {
    EXPECT_TRUE(ok);
    completed = true;
  });
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(completed);
  EXPECT_EQ(net.total_messages(), 1u);
  EXPECT_EQ(net.messages_received(1), 1u);
  EXPECT_EQ(net.messages_sent(0), 1u);
}

TEST_F(NetFixture, UnregisteredTypeDroppedButAcked) {
  Network net = make(2);
  bool completed = false;
  net.send(0, 1, Message{.type = 99}, 0, [&](bool ok) { completed = ok; });
  engine.run();
  EXPECT_TRUE(completed);  // transport succeeded even if nobody listened
}

TEST_F(NetFixture, SendToDeadNodeFailsAfterTimeout) {
  Network net = make(2);
  std::vector<bool> up{true, false};
  net.set_liveness([&](NodeId id) { return up[id]; });
  bool ok = true;
  SimTime completed_at = 0;
  net.send(0, 1, Message{.type = 1}, seconds(3), [&](bool result) {
    ok = result;
    completed_at = engine.now();
  });
  engine.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(completed_at, seconds(3));
  EXPECT_EQ(net.failed_sends(), 1u);
}

TEST_F(NetFixture, DefaultTimeoutUsedWhenZero) {
  Network net = make(2);
  net.set_liveness([](NodeId id) { return id != 1; });
  SimTime completed_at = 0;
  net.send(0, 1, Message{.type = 1}, 0, [&](bool) { completed_at = engine.now(); });
  engine.run();
  EXPECT_EQ(completed_at, model.default_timeout);
}

TEST_F(NetFixture, SenderSerializesFanout) {
  Network net = make(101);
  int delivered = 0;
  net.register_handler(1, [&](NodeId, const Message&) { ++delivered; });
  SimTime last_done = 0;
  for (NodeId i = 1; i <= 100; ++i)
    net.send(0, i, Message{.type = 1}, 0, [&](bool) { last_done = engine.now(); });
  engine.run();
  EXPECT_EQ(delivered, 100);
  // 100 serialized sends cost at least 100 * send_processing before the
  // last wire hop even begins.
  EXPECT_GE(last_done, 100 * model.send_processing);
}

TEST_F(NetFixture, ReceiverSerializesIncomingBurst) {
  Network net = make(11);
  SimTime last_delivery = 0;
  net.register_handler(1, [&](NodeId, const Message&) { last_delivery = engine.now(); });
  for (NodeId i = 0; i < 10; ++i) net.send(i, 10, Message{.type = 1});
  engine.run();
  // All ten arrive at about the same instant but are processed serially.
  EXPECT_GE(last_delivery, 10 * model.recv_processing);
}

TEST_F(NetFixture, SocketAccountingOpensAndCloses) {
  Network net = make(2);
  net.watch_sockets(0);
  EXPECT_EQ(net.open_sockets(0), 0);
  net.send(0, 1, Message{.type = 1});
  engine.run();
  EXPECT_EQ(net.open_sockets(0), 0);
  EXPECT_EQ(net.open_sockets(1), 0);
  EXPECT_GT(net.socket_series(0).max_value(), 0);  // saw the socket open
}

TEST_F(NetFixture, WatchingAgainKeepsOneSeriesAndTheOverride) {
  Network net = make(2);
  net.set_recv_processing(0, microseconds(70));
  net.watch_sockets(0);
  net.watch_sockets(0);  // re-sample, as an HA takeover does
  EXPECT_EQ(net.recv_processing(0), microseconds(70));
  net.send(0, 1, Message{.type = 1});
  engine.run();
  // Two watch samples plus one record per socket change (open, close).
  EXPECT_EQ(net.socket_series(0).size(), 4u);
  EXPECT_EQ(net.socket_series(0).max_value(), 1.0);
  EXPECT_TRUE(net.socket_series(1).empty());
}

TEST_F(NetFixture, LargerMessagesTakeLonger) {
  Network net = make(3);
  SimTime small_done = 0, large_done = 0;
  net.send(0, 1, Message{.type = 1, .bytes = 128}, 0,
           [&](bool) { small_done = engine.now(); });
  engine.run();
  const SimTime t0 = engine.now();
  net.send(0, 2, Message{.type = 1, .bytes = 100 * 1024 * 1024}, seconds(10),
           [&](bool) { large_done = engine.now(); });
  engine.run();
  EXPECT_GT(large_done - t0, small_done);
}

TEST_F(NetFixture, BadNodeIdThrows) {
  Network net = make(2);
  EXPECT_THROW(net.send(0, 5, Message{}), std::out_of_range);
  EXPECT_THROW(net.send(7, 0, Message{}), std::out_of_range);
}

TEST_F(NetFixture, FireAndForgetWithoutCallback) {
  Network net = make(2);
  net.send(0, 1, Message{.type = 1});
  EXPECT_NO_THROW(engine.run());
}

TEST_F(NetFixture, TypeHandlerReceivesTheReceivingNodeAsSelf) {
  Network net = make(4);
  std::vector<std::pair<NodeId, NodeId>> seen;  // (self, src)
  net.register_handler(7, [&](NodeId self, const Message& m) {
    seen.emplace_back(self, m.src);
  });
  net.send(0, 1, Message{.type = 7});
  net.send(0, 2, Message{.type = 7});
  net.send(3, 0, Message{.type = 7});
  engine.run();
  std::sort(seen.begin(), seen.end());
  const std::vector<std::pair<NodeId, NodeId>> expected{{0, 3}, {1, 0}, {2, 0}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(net.messages_received(0), 1u);
  EXPECT_EQ(net.messages_received(1), 1u);
}

TEST_F(NetFixture, HandlerCanBeReplacedAndUnregistered) {
  Network net = make(2);
  std::vector<int> got;
  net.register_handler(7, [&](NodeId, const Message&) { got.push_back(1); });
  net.register_handler(7, [&](NodeId, const Message&) { got.push_back(2); });
  net.send(0, 1, Message{.type = 7});
  engine.run();
  net.unregister_handler(7);
  bool acked = false;
  net.send(0, 1, Message{.type = 7}, 0, [&](bool ok) { acked = ok; });
  engine.run();
  EXPECT_EQ(got, std::vector<int>{2});  // replaced, then dropped
  EXPECT_TRUE(acked);                   // an unserved type is still acked
  EXPECT_THROW(net.register_handler(-1, [](NodeId, const Message&) {}), std::out_of_range);
  EXPECT_THROW(net.unregister_handler(-1), std::out_of_range);
}

TEST_F(NetFixture, RecvProcessingOverrideChangesOnlyThatNode) {
  Network net = make(4);
  const SimTime slow = milliseconds(1);
  net.set_recv_processing(1, slow);
  EXPECT_EQ(net.recv_processing(1), slow);
  EXPECT_EQ(net.recv_processing(2), model.recv_processing);
  // Same-sized bursts from distinct senders: equal wire times, so the
  // receivers' last deliveries differ only by their receive serialization.
  std::vector<SimTime> last(4, 0);
  net.register_handler(1, [&](NodeId self, const Message&) { last[self] = engine.now(); });
  for (int i = 0; i < 3; ++i) {
    net.send(0, 1, Message{.type = 1});
    net.send(3, 2, Message{.type = 1});
  }
  engine.run();
  EXPECT_EQ(last[1] - last[2], 3 * (slow - model.recv_processing));
  net.set_recv_processing(1, 0);  // 0 restores the link-model default
  EXPECT_EQ(net.recv_processing(1), model.recv_processing);
}

TEST_F(NetFixture, PingPongSocketSeriesAndCountersMatchPinnedValues) {
  // Values pinned from the node-state layout before the hot/cold split:
  // jittered links, one overridden receiver, two watched nodes.
  LinkModel jittery;
  Network net(engine, 4, jittery, Rng(3));
  net.watch_sockets(0);
  net.watch_sockets(2);
  net.set_recv_processing(0, microseconds(40));
  int pongs = 0;
  net.register_handler(1, [&](NodeId, const Message&) { ++pongs; });
  net.register_handler(2, [&net](NodeId self, const Message& m) {
    net.send(self, m.src, Message{.type = 1});
  });
  for (int round = 0; round < 3; ++round)
    for (NodeId n = 1; n < 4; ++n) net.send(0, n, Message{.type = 2});
  engine.run();
  EXPECT_EQ(pongs, 9);
  using Series = PointListSeries::Points;
  const Series master{
      {0, 0},       {0, 1},       {0, 2},       {0, 3},       {0, 4},       {0, 5},
      {0, 6},       {0, 7},       {0, 8},       {0, 9},       {115951, 10}, {125525, 11},
      {131936, 12}, {143259, 11}, {144619, 12}, {152137, 11}, {153690, 12}, {158649, 11},
      {163476, 12}, {169907, 11}, {171867, 12}, {180933, 11}, {186163, 12}, {189976, 11},
      {198090, 12}, {198164, 11}, {213448, 10}, {224574, 9},  {279956, 8},  {318133, 7},
      {358866, 6},  {397720, 5},  {439829, 4},  {479519, 3},  {518222, 2},  {560104, 1},
      {599867, 0}};
  const Series node2{{0, 0},      {0, 1},      {0, 2},      {0, 3},      {125525, 4},
                     {152137, 3}, {153690, 4}, {180933, 3}, {186163, 4}, {213448, 3},
                     {318133, 2}, {439829, 1}, {560104, 0}};
  expect_same_summary(net.socket_series(0), PointListSeries(master));
  expect_same_summary(net.socket_series(2), PointListSeries(node2));
  EXPECT_TRUE(net.socket_series(1).empty());  // unwatched
  EXPECT_EQ(net.messages_sent(0), 9u);
  EXPECT_EQ(net.messages_received(0), 9u);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(net.messages_sent(n), 3u);
    EXPECT_EQ(net.messages_received(n), 3u);
  }
}

}  // namespace
}  // namespace eslurm::net
