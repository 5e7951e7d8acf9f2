// Per-experiment telemetry context: one metrics Registry plus one Tracer
// behind a single master switch.
//
// There is deliberately no process-wide instance: each world owns (or is
// handed) its own `Telemetry`, which is what lets several `Experiment`s
// coexist in one process -- sequentially or on concurrent sweep threads --
// without trampling each other's metrics or trace clocks.  The context is
// injected at the bottom of the world (`sim::Engine`) and reached from
// instrumented subsystems through their engine, so the fast path stays a
// pointer check:
//
//   if (auto* t = engine.telemetry()) {
//     t->metrics.counter("rm.dispatches").inc();
//     t->tracer.instant("master-crash", "rm");
//   }
//
// Hot loops should cache instrument references at construction time
// instead (see sim::Engine), turning the per-event cost into a plain
// pointer check + double increment.
//
// Benches enable a context before building their world (see
// bench_common.hpp's Harness and the --telemetry-out flag); tests
// construct one around the code under test.  Each instance is used from
// one thread at a time (the thread running its experiment).
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace eslurm::telemetry {

struct Telemetry {
  Registry metrics;
  Tracer tracer;

  bool enabled() const { return enabled_; }
  /// Enables metrics + tracing; idempotent.
  void enable(std::size_t max_trace_events = 1u << 20);
  /// Disables and drops all recorded state (tests use this to isolate).
  void reset();
  /// True when no metric and no trace event has been recorded.
  bool empty() const { return metrics.empty() && tracer.event_count() == 0; }

  /// Writes the combined artifact (Chrome trace with embedded metrics
  /// snapshot) to `path`.  Returns false on I/O failure.
  bool save(const std::string& path) const;

  /// Injection helper: `this` when enabled, nullptr otherwise.  World
  /// builders pass `t.if_enabled()` down so disabled telemetry costs the
  /// instrumented code nothing but a null check.
  Telemetry* if_enabled() { return enabled_ ? this : nullptr; }

 private:
  bool enabled_ = false;
};

}  // namespace eslurm::telemetry
