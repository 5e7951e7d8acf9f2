#include "rm/accounting.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace eslurm::rm {
namespace {

struct AccountingFixture : ::testing::Test {
  sim::Engine engine;
  std::optional<net::Network> net;
  void SetUp() override {
    net::LinkModel model;
    model.jitter_frac = 0.0;
    net.emplace(engine, 4, model, Rng(1));
  }
};

TEST_F(AccountingFixture, CpuChargesAccumulate) {
  DaemonStats stats(engine, *net, 0, AccountingModel{});
  EXPECT_DOUBLE_EQ(stats.cpu_seconds(), 0.0);
  stats.charge_cpu_us(2'000'000.0);
  EXPECT_DOUBLE_EQ(stats.cpu_seconds(), 2.0);
}

TEST_F(AccountingFixture, MessageHandlingCountsTowardCpu) {
  AccountingModel model;
  model.cpu_us_per_message = 1000.0;
  DaemonStats stats(engine, *net, 0, model);
  net->register_handler(1, [](net::NodeId, const net::Message&) {});
  net->send(1, 0, net::Message{.type = 1});
  engine.run();
  // One received message -> 1 ms of CPU.
  EXPECT_NEAR(stats.cpu_seconds(), 1e-3, 1e-9);
}

TEST_F(AccountingFixture, MemoryModelScalesWithTrackedEntities) {
  AccountingModel model;
  model.rss_base_mb = 10.0;
  model.rss_kb_per_node = 1024.0;  // 1 MB per node for easy math
  model.rss_kb_per_job = 512.0;
  model.vmem_base_gb = 1.0;
  model.vmem_per_rss = 2.0;
  DaemonStats stats(engine, *net, 0, model);
  EXPECT_DOUBLE_EQ(stats.rss_mb(), 10.0);
  stats.set_tracked_nodes(4);
  stats.set_tracked_jobs(2);
  EXPECT_DOUBLE_EQ(stats.rss_mb(), 10.0 + 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(stats.vmem_gb(), 1.0 + 2.0 * 15.0 / 1024.0);
}

TEST_F(AccountingFixture, PersistentSocketsAddToGauge) {
  DaemonStats stats(engine, *net, 0, AccountingModel{});
  EXPECT_EQ(stats.sockets_now(), 0);
  stats.set_persistent_sockets(100);
  EXPECT_EQ(stats.sockets_now(), 100);
}

TEST_F(AccountingFixture, SamplingRecordsSeriesAndStopsAtHorizon) {
  DaemonStats stats(engine, *net, 0, AccountingModel{});
  stats.start_sampling(seconds(10), seconds(60));
  engine.run_until(minutes(5));
  // Samples at 10..60 s inclusive, none afterwards.
  EXPECT_EQ(stats.rss_series().size(), 6u);
}

TEST_F(AccountingFixture, SampledSocketSeriesCapturesWindowPeaks) {
  AccountingModel model;
  DaemonStats stats(engine, *net, 0, model);
  stats.start_sampling(seconds(10), minutes(10));
  net->register_handler(1, [](net::NodeId, const net::Message&) {});
  // A burst of concurrent inbound messages between two sample ticks.
  engine.schedule_at(seconds(12), [&] {
    for (net::NodeId n = 1; n < 4; ++n) net->send(n, 0, net::Message{.type = 1});
  });
  engine.run_until(seconds(30));
  EXPECT_GE(stats.socket_series().max_value(), 3.0);
}

TEST_F(AccountingFixture, CpuUtilizationBounded) {
  DaemonStats stats(engine, *net, 0, AccountingModel{});
  stats.start_sampling(seconds(10), minutes(2));
  engine.schedule_at(seconds(5), [&] { stats.charge_cpu_us(60e6); });  // 60 s
  // Check each sample right after its tick: 10, 20, ..., 60 s.
  std::size_t checked = 0;
  for (int tick = 1; tick <= 6; ++tick) {
    engine.schedule_at(seconds(10 * tick) + 1, [&] {
      ++checked;
      EXPECT_EQ(stats.cpu_util_series().size(), checked);
      EXPECT_GE(stats.cpu_util_series().last(), 0.0);
      EXPECT_LE(stats.cpu_util_series().last(), 100.0);
    });
  }
  engine.run_until(minutes(1) + 1);
  EXPECT_EQ(checked, 6u);
  EXPECT_DOUBLE_EQ(stats.cpu_util_series().max_value(), 100.0);
}

}  // namespace
}  // namespace eslurm::rm
