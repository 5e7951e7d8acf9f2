#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace eslurm::sim {
namespace {

/// Queues below this size are never compacted: the win is negligible and
/// short benches would churn on tiny rebuilds.
constexpr std::size_t kCompactionMinQueue = 64;

}  // namespace

Engine::Engine(telemetry::Telemetry* telemetry)
    : telemetry_(telemetry && telemetry->enabled() ? telemetry : nullptr) {
  if (auto* t = telemetry_) {
    executed_counter_ = &t->metrics.counter("sim.events_executed");
    depth_gauge_ = &t->metrics.gauge("sim.queue_depth");
    stale_gauge_ = &t->metrics.gauge("sim.stale_ratio");
    compaction_counter_ = &t->metrics.counter("sim.queue_compactions");
    // The newest engine drives the trace clock (a context serves one
    // world at a time; the destructor retracts exactly this
    // registration).
    t->tracer.set_clock([this] { return now_; }, this);
  }
}

Engine::~Engine() {
  if (depth_gauge_) publish_telemetry();  // final sync for the artifact
  if (telemetry_) telemetry_->tracer.clear_clock(this);
}

bool Engine::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & kSlotMask);
  const std::uint64_t seq = id >> kSlotBits;
  if (seq == 0 || index >= pool_.capacity()) return false;
  EventSlot& slot = pool_[index];
  if (slot.seq != seq) return false;  // ran, cancelled, or slot reused
  slot.fn.reset();  // destroy the capture now, not at slot reuse
  slot.seq = 0;
  pool_.release(index);
  maybe_compact();
  return true;
}

void Engine::maybe_compact() {
  // Lazy-cancel hygiene: cancelled entries stay in the queue until their
  // timestamp would have fired.  Workloads that arm-and-cancel watchdogs
  // far in the future (tree broadcasts, subtask monitors) accumulate
  // them; once more than half the queue is dead weight, rebuild it.
  if (queue_.size() < kCompactionMinQueue) return;
  if (stale_entries() * 2 <= queue_.size()) return;
  auto& entries = queue_.container();
  std::erase_if(entries, [this](const QueueEntry& e) { return !entry_live(e); });
  queue_.rebuild();
  ++compactions_;
  // No gauge refresh here: cancel() may run inside a callback, where the
  // running event is still pending (see stale_entries()).  The next
  // periodic or end-of-run publish carries the shrunken queue.
  if (compaction_counter_) compaction_counter_->inc();
}

void Engine::publish_telemetry() {
  depth_gauge_->set(static_cast<double>(queue_.size()));
  stale_gauge_->set(stale_ratio());
  executed_counter_->inc(static_cast<double>(executed_) - executed_counter_->value());
}

bool Engine::step() {
  while (!queue_.empty()) {
    const QueueEntry top = queue_.top();
    queue_.pop();
    if (!entry_live(top)) continue;  // cancelled
    // The callable is invoked in place: pool storage is stable (chunked),
    // so a callback that schedules events may grow the pool under us.
    // The slot is marked dead before the call (cancelling the executing
    // event is a no-op) but released only after it, so a reentrant
    // schedule can never overwrite the capture mid-execution.
    const std::uint64_t key = entry_key(top);
    const auto index = static_cast<std::uint32_t>(key & kSlotMask);
    EventSlot& slot = pool_[index];
    // Two-stage pipeline.  Stage one: start loading the next entry's
    // slot now, so it is in cache by the time this callback returns.
    const EventSlot* next = nullptr;
    std::uint64_t next_seq = 0;
    if (!queue_.empty()) {
      const std::uint64_t next_key = entry_key(queue_.top());
      next = &pool_[static_cast<std::uint32_t>(next_key & kSlotMask)];
      next_seq = next_key >> kSlotBits;
      __builtin_prefetch(next);
    }
    slot.seq = 0;
    now_ = entry_time(top);
    ++executed_;
    if (observer_) observer_(observer_ctx_, now_, key >> kSlotBits);
    slot.fn();
    // Stage two: the next slot has arrived; if its event is still live,
    // its callable's prefetch() hook starts loading the state it will
    // touch.  The hook is only a hint: the callback may have cancelled
    // that event (the sequence check skips it) or scheduled an earlier
    // one, which then runs first.
    if (next && next->seq == next_seq) next->fn.prefetch();
    slot.fn.reset();  // destroy the capture now, not at slot reuse
    pool_.release(index);
    // Periodic gauge refresh, after the release so that the queue and the
    // pool agree on what is pending; the modulo keeps the
    // disabled/enabled cost out of the per-event budget.
    if (depth_gauge_ && (executed_ & 0xFFF) == 0) publish_telemetry();
    return true;
  }
  return false;
}

void Engine::run_until(SimTime horizon) {
  while (!queue_.empty()) {
    // Skip cancelled entries without advancing time.
    if (!entry_live(queue_.top())) {
      queue_.pop();
      continue;
    }
    if (entry_time(queue_.top()) > horizon) break;
    step();
  }
  if (now_ < horizon) now_ = horizon;
  if (depth_gauge_) publish_telemetry();
}

void Engine::run() {
  while (step()) {
  }
  if (depth_gauge_) publish_telemetry();
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime period, std::function<void()> fn)
    : engine_(engine), period_(period), fn_(std::move(fn)) {
  assert(period_ > 0);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start(SimTime first_delay) {
  if (running_) return;
  running_ = true;
  arm(first_delay);
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kInvalidEvent) {
    engine_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
}

void PeriodicTask::arm(SimTime delay) {
  pending_ = engine_.schedule_after(delay, [this] {
    pending_ = kInvalidEvent;
    if (!running_) return;
    fn_();
    if (running_) arm(period_);
  });
}

}  // namespace eslurm::sim
