#include "telemetry/tracer.hpp"

#include <ostream>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace eslurm::telemetry {
namespace {

std::string render_args(TraceArgs args) {
  std::ostringstream os;
  os.precision(12);
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << "\":" << value;
  }
  return os.str();
}

}  // namespace

void Tracer::enable(std::size_t max_events) {
  enabled_ = true;
  max_events_ = max_events;
  events_.reserve(std::min<std::size_t>(max_events, 4096));
}

void Tracer::clear() {
  events_.clear();
  dropped_ = 0;
}

void Tracer::set_clock(std::function<SimTime()> clock, const void* owner) {
  clock_ = std::move(clock);
  clock_owner_ = owner;
}

void Tracer::clear_clock(const void* owner) {
  if (clock_owner_ != owner) return;  // a newer clock took over
  clock_ = nullptr;
  clock_owner_ = nullptr;
}

void Tracer::push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string name, std::string cat) {
  if (!enabled_) return;
  push(TraceEvent{'i', now(), 0, 0, std::move(name), std::move(cat), {}});
}

void Tracer::instant(std::string name, std::string cat, TraceArgs args) {
  if (!enabled_) return;
  push(TraceEvent{'i', now(), 0, 0, std::move(name), std::move(cat),
                  render_args(args)});
}

void Tracer::complete(std::string name, std::string cat, SimTime start, SimTime dur) {
  if (!enabled_) return;
  push(TraceEvent{'X', start, dur, 0, std::move(name), std::move(cat), {}});
}

void Tracer::complete(std::string name, std::string cat, SimTime start, SimTime dur,
                      TraceArgs args) {
  if (!enabled_) return;
  push(TraceEvent{'X', start, dur, 0, std::move(name), std::move(cat),
                  render_args(args)});
}

void Tracer::counter_sample(std::string name, double value) {
  if (!enabled_) return;
  std::ostringstream os;
  os.precision(12);
  os << "\"value\":" << value;
  push(TraceEvent{'C', now(), 0, 0, std::move(name), "metric", os.str()});
}

void Tracer::write_chrome_trace(std::ostream& os, const Registry* metrics) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) os << ',';
    first = false;
    // Chrome trace timestamps are microseconds; SimTime is nanoseconds.
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",\"ph\":\"" << e.ph << "\",\"pid\":1,\"tid\":"
       << e.tid << ",\"ts\":" << static_cast<double>(e.ts) / 1e3;
    if (e.ph == 'X') os << ",\"dur\":" << static_cast<double>(e.dur) / 1e3;
    if (e.ph == 'i') os << ",\"s\":\"g\"";  // global-scope instant marker
    if (!e.args_json.empty()) os << ",\"args\":{" << e.args_json << '}';
    os << '}';
  }
  os << ']';
  if (dropped_ > 0) os << ",\"droppedEvents\":" << dropped_;
  if (metrics) {
    os << ",\"metrics\":";
    metrics->write_json(os);
  }
  os << '}';
}

}  // namespace eslurm::telemetry
