// Property tests of the network's conservation invariants under random
// traffic and failures.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/cluster.hpp"
#include "net/network.hpp"

namespace eslurm::net {
namespace {

class TrafficSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficSweep, InvariantsUnderRandomTrafficAndFailures) {
  sim::Engine engine;
  LinkModel model;
  Network net(engine, 64, model, Rng(GetParam()));
  cluster::ClusterModel cluster(engine, 64);
  net.set_liveness(cluster.liveness());
  for (NodeId n = 0; n < 64; ++n) net.watch_sockets(n);

  Rng rng(GetParam() ^ 0xBEEF);
  std::size_t expected_sends = 0;
  std::size_t completions = 0, successes = 0, failures = 0;
  net.register_handler(1, [](NodeId, const Message&) {});
  for (int i = 0; i < 500; ++i) {
    const auto from = static_cast<NodeId>(rng.uniform_int(0, 63));
    const auto to = static_cast<NodeId>(rng.uniform_int(0, 63));
    engine.schedule_at(milliseconds(rng.uniform_int(0, 5000)), [&, from, to] {
      net.send(from, to, Message{.type = 1, .bytes = 64}, seconds(1), [&](bool ok) {
        ++completions;
        (ok ? successes : failures)++;
      });
    });
    ++expected_sends;
    // Random failures and repairs interleave with the traffic.
    if (rng.chance(0.1)) {
      const auto victim = static_cast<NodeId>(rng.uniform_int(1, 63));
      engine.schedule_at(milliseconds(rng.uniform_int(0, 5000)),
                         [&cluster, victim] { cluster.fail(victim); });
      engine.schedule_at(milliseconds(rng.uniform_int(5000, 9000)),
                         [&cluster, victim] {
                           if (!cluster.alive(victim)) cluster.restore(victim);
                         });
    }
  }
  engine.run();

  // Every send completes exactly once, success + failure partition them.
  EXPECT_EQ(completions, expected_sends);
  EXPECT_EQ(successes + failures, expected_sends);
  EXPECT_EQ(net.failed_sends(), failures);
  // All sockets are closed at quiescence, on every node.
  for (NodeId n = 0; n < 64; ++n) EXPECT_EQ(net.open_sockets(n), 0) << "node " << n;
  // Message accounting is conserved.
  std::uint64_t sent = 0;
  for (NodeId n = 0; n < 64; ++n) sent += net.messages_sent(n);
  EXPECT_EQ(sent, expected_sends);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficSweep, ::testing::Values(1, 7, 99, 1234));

TEST(NetworkRecvOverride, SlowsOnlyTheTargetNode) {
  sim::Engine engine;
  LinkModel model;
  model.jitter_frac = 0.0;
  Network net(engine, 3, model, Rng(1));
  net.set_recv_processing(1, milliseconds(50));
  net.register_handler(1, [](NodeId, const Message&) {});
  SimTime slow_done = 0, fast_done = 0;
  net.send(0, 1, Message{.type = 1}, 0, [&](bool) { slow_done = engine.now(); });
  engine.run();
  const SimTime t0 = engine.now();
  net.send(0, 2, Message{.type = 1}, 0, [&](bool) { fast_done = engine.now(); });
  engine.run();
  EXPECT_GT(slow_done, milliseconds(50));
  EXPECT_LT(fast_done - t0, milliseconds(5));
  EXPECT_EQ(net.recv_processing(1), milliseconds(50));
  EXPECT_EQ(net.recv_processing(2), model.recv_processing);
}

TEST(NetworkRecvOverride, QueueBuildsUnderWave) {
  // A wave of messages into a slow receiver must pile up connections --
  // the centralized-master overload mechanism.
  sim::Engine engine;
  LinkModel model;
  model.jitter_frac = 0.0;
  Network net(engine, 101, model, Rng(1));
  net.set_recv_processing(0, milliseconds(10));
  net.watch_sockets(0);
  net.register_handler(1, [](NodeId, const Message&) {});
  for (NodeId n = 1; n <= 100; ++n) net.send(n, 0, Message{.type = 1}, minutes(10));
  engine.run();
  // 100 messages x 10 ms service, near-simultaneous arrival: most of the
  // wave is queued at once.
  EXPECT_GT(net.socket_series(0).max_value(), 50.0);
  EXPECT_EQ(net.open_sockets(0), 0);
}

}  // namespace
}  // namespace eslurm::net
