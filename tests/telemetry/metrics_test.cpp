#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/json.hpp"

namespace eslurm::telemetry {
namespace {

TEST(Metrics, CounterAccumulates) {
  Registry registry;
  Counter& c = registry.counter("rm.dispatches");
  c.inc();
  c.inc(4);
  EXPECT_DOUBLE_EQ(c.value(), 5.0);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("rm.dispatches"), &c);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Metrics, GaugeLastWriteWins) {
  Registry registry;
  Gauge& g = registry.gauge("sched.queue_depth");
  g.set(12);
  g.set(7);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, LabelsCreateDistinctInstruments) {
  Registry registry;
  Counter& ring = registry.counter("comm.broadcasts", {{"structure", "ring"}});
  Counter& tree = registry.counter("comm.broadcasts", {{"structure", "tree"}});
  EXPECT_NE(&ring, &tree);
  ring.inc();
  EXPECT_DOUBLE_EQ(tree.value(), 0.0);
  EXPECT_EQ(labeled_name("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
  EXPECT_TRUE(registry.counters().contains("comm.broadcasts{structure=ring}"));
}

TEST(Metrics, InstrumentReferencesStayStableAcrossInsertions) {
  Registry registry;
  Counter& first = registry.counter("a");
  for (int i = 0; i < 100; ++i) registry.counter("c" + std::to_string(i));
  first.inc();
  EXPECT_DOUBLE_EQ(registry.counter("a").value(), 1.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  Histogram h({1.0, 2.0, 5.0});
  for (const double x : {0.5, 1.5, 1.5, 3.0, 10.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // bounds + overflow: (<=1): 1, (<=2): 2, (<=5): 1, overflow: 1.
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Metrics, HistogramPercentilesInterpolateAndClamp) {
  Histogram h({10.0, 20.0, 50.0});
  for (int i = 0; i < 98; ++i) h.observe(5.0);
  h.observe(15.0);
  h.observe(40.0);
  // p50 falls inside the first bucket, p99 in the last populated one;
  // both stay within the observed range.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p50(), 10.0);
  EXPECT_GT(h.p99(), 10.0);
  EXPECT_LE(h.p99(), h.max());
  EXPECT_DOUBLE_EQ(Histogram({1.0}).percentile(0.5), 0.0);  // empty
}

TEST(Metrics, HistogramDefaultsToTimeBuckets) {
  Registry registry;
  Histogram& h = registry.histogram("comm.broadcast_seconds");
  EXPECT_EQ(h.bounds(), default_time_buckets());
  // Bounds given after creation are ignored (first writer wins).
  EXPECT_EQ(&registry.histogram("comm.broadcast_seconds", {1.0}), &h);
  EXPECT_EQ(h.bounds(), default_time_buckets());
}

TEST(Metrics, JsonSnapshotParsesBack) {
  Registry registry;
  registry.counter("events", {{"kind", "a"}}).inc(3);
  registry.gauge("depth").set(17);
  registry.histogram("wait", {1.0, 10.0}).observe(0.5);
  registry.histogram("wait", {1.0, 10.0}).observe(100.0);

  std::ostringstream out;
  registry.write_json(out);
  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("events{kind=a}")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc->find("gauges")->find("depth")->as_number(), 17.0);
  const JsonValue* wait = doc->find("histograms")->find("wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(wait->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(wait->find("sum")->as_number(), 100.5);
  // Overflow bucket renders with le = "inf".
  const auto& buckets = wait->find("buckets")->items();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets.back().find("le")->as_string(), "inf");
  EXPECT_DOUBLE_EQ(buckets.back().find("count")->as_number(), 1.0);
}

TEST(Metrics, ClearEmptiesTheRegistry) {
  Registry registry;
  registry.counter("c").inc();
  registry.clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_DOUBLE_EQ(registry.counter("c").value(), 0.0);
}

}  // namespace
}  // namespace eslurm::telemetry
