#include "telemetry/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace eslurm::telemetry {
namespace {

/// Manually advanced clock standing in for sim::Engine.
struct FakeClock {
  SimTime now = 0;
  void install(Tracer& tracer) {
    tracer.set_clock([this] { return now; }, this);
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.instant("x", "test");
  tracer.complete("y", "test", 0, seconds(1));
  tracer.counter_sample("z", 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RecordsInstantAndCompleteWithSimTimestamps) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  clock.now = seconds(3);
  tracer.instant("mark", "test", {{"node", 7.0}});
  tracer.complete("work", "test", seconds(1), seconds(2));
  ASSERT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.events()[0].ph, 'i');
  EXPECT_EQ(tracer.events()[0].ts, seconds(3));
  EXPECT_EQ(tracer.events()[1].ph, 'X');
  EXPECT_EQ(tracer.events()[1].ts, seconds(1));
  EXPECT_EQ(tracer.events()[1].dur, seconds(2));
}

TEST(Tracer, ClockOwnerRetractsOnlyItsOwnRegistration) {
  Tracer tracer;
  FakeClock first, second;
  first.now = seconds(1);
  second.now = seconds(2);
  first.install(tracer);
  second.install(tracer);  // newest wins
  EXPECT_EQ(tracer.now(), seconds(2));
  tracer.clear_clock(&first);  // stale owner: no effect
  EXPECT_EQ(tracer.now(), seconds(2));
  tracer.clear_clock(&second);
  EXPECT_EQ(tracer.now(), 0);
}

TEST(Tracer, DropsEventsAtTheCap) {
  Tracer tracer;
  tracer.enable(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) tracer.instant("e", "test");
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

TEST(Tracer, ChromeTraceJsonParsesBack) {
  Tracer tracer;
  FakeClock clock;
  clock.install(tracer);
  tracer.enable();

  clock.now = milliseconds(1500);
  tracer.instant("mark \"quoted\"", "cat", {{"v", 1.5}});
  tracer.complete("span", "cat", milliseconds(500), milliseconds(1000));
  tracer.counter_sample("depth", 42.0);

  Registry metrics;
  metrics.counter("events").inc(3);

  std::ostringstream out;
  tracer.write_chrome_trace(out, &metrics);
  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 3u);

  const JsonValue& instant = events->items()[0];
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("name")->as_string(), "mark \"quoted\"");
  // SimTime is nanoseconds; Chrome trace ts is microseconds.
  EXPECT_DOUBLE_EQ(instant.find("ts")->as_number(), 1500e3);
  EXPECT_DOUBLE_EQ(instant.find("args")->find("v")->as_number(), 1.5);

  const JsonValue& complete = events->items()[1];
  EXPECT_EQ(complete.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(complete.find("ts")->as_number(), 500e3);
  EXPECT_DOUBLE_EQ(complete.find("dur")->as_number(), 1000e3);

  const JsonValue& counter = events->items()[2];
  EXPECT_EQ(counter.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("value")->as_number(), 42.0);

  // Embedded metrics snapshot rides along for esprof.
  EXPECT_DOUBLE_EQ(doc->find("metrics")->find("counters")->find("events")->as_number(),
                   3.0);
}

TEST(Telemetry, ContextEnableResetCycle) {
  Telemetry context;
  EXPECT_EQ(context.if_enabled(), nullptr);
  context.enable();
  ASSERT_NE(context.if_enabled(), nullptr);
  context.if_enabled()->metrics.counter("t").inc();
  context.if_enabled()->tracer.instant("e", "test");
  context.reset();
  EXPECT_EQ(context.if_enabled(), nullptr);
  EXPECT_TRUE(context.metrics.empty());
  EXPECT_EQ(context.tracer.event_count(), 0u);
}

TEST(Telemetry, ContextsAreIndependent) {
  Telemetry a, b;
  a.enable();
  b.enable();
  a.metrics.counter("hits").inc(3);
  b.metrics.counter("hits").inc(5);
  a.tracer.instant("only-a", "test");
  EXPECT_DOUBLE_EQ(a.metrics.counter("hits").value(), 3.0);
  EXPECT_DOUBLE_EQ(b.metrics.counter("hits").value(), 5.0);
  EXPECT_EQ(a.tracer.event_count(), 1u);
  EXPECT_EQ(b.tracer.event_count(), 0u);
}

}  // namespace
}  // namespace eslurm::telemetry
