// Sim-time tracer: spans, instant events and counter samples stamped
// with the simulation clock, exported as Chrome trace-event JSON that
// loads directly into Perfetto / chrome://tracing.
//
// Design constraints:
//   * near-zero cost when disabled -- every recording call starts with a
//     single inline `enabled()` load; nothing is allocated or formatted
//     unless tracing is on;
//   * no dependency on sim::Engine (telemetry sits below sim in the
//     library order): the clock is injected as a callback, and
//     sim::Engine registers itself as the clock source on construction;
//   * work that spans sim time (broadcasts, dispatches) records a
//     `complete()` event after the fact with an explicit start/duration.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace eslurm::telemetry {

class Registry;

/// One trace event in the Chrome trace-event model.  `ph` is the phase:
/// 'X' complete (ts + dur), 'i' instant, 'C' counter sample.
struct TraceEvent {
  char ph = 'i';
  SimTime ts = 0;
  SimTime dur = 0;
  std::uint32_t tid = 0;
  std::string name;
  std::string cat;
  std::string args_json;  ///< pre-rendered `"k":v,...` (no braces), may be empty
};

/// Key/value pairs attached to an event; rendered once, at record time.
using TraceArgs = std::initializer_list<std::pair<const char*, double>>;

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Turns recording on.  `max_events` bounds memory; once reached, new
  /// events are dropped and `dropped_events()` counts them.
  void enable(std::size_t max_events = 1u << 20);
  void disable() { enabled_ = false; }
  void clear();

  /// Clock injection.  `owner` tags the registration so a destroyed
  /// engine can retract exactly its own clock (last registration wins).
  void set_clock(std::function<SimTime()> clock, const void* owner);
  void clear_clock(const void* owner);
  SimTime now() const { return clock_ ? clock_() : 0; }

  // --- recording (all no-ops when disabled) ---------------------------
  void instant(std::string name, std::string cat);
  void instant(std::string name, std::string cat, TraceArgs args);
  /// Explicitly timed event: `start` .. `start + dur` in sim time.
  void complete(std::string name, std::string cat, SimTime start, SimTime dur);
  void complete(std::string name, std::string cat, SimTime start, SimTime dur,
                TraceArgs args);
  /// Counter track sample ("C" phase): renders as a filled area chart.
  void counter_sample(std::string name, double value);

  std::size_t event_count() const { return events_.size(); }
  std::size_t dropped_events() const { return dropped_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Chrome trace JSON object: {"traceEvents": [...], ...}.  When
  /// `metrics` is given, the registry snapshot is embedded under a
  /// top-level "metrics" key (ignored by trace viewers, read by esprof).
  void write_chrome_trace(std::ostream& os, const Registry* metrics = nullptr) const;

 private:
  void push(TraceEvent event);

  bool enabled_ = false;
  std::size_t max_events_ = 0;
  std::size_t dropped_ = 0;
  std::function<SimTime()> clock_;
  const void* clock_owner_ = nullptr;
  std::vector<TraceEvent> events_;
};

}  // namespace eslurm::telemetry
