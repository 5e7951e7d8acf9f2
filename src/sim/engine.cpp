#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
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
  std::fill(std::begin(wheel_head_), std::end(wheel_head_), kNoBlock);
  std::fill(std::begin(wheel_first_), std::end(wheel_first_), ~std::uint64_t{0});
  // The block pool's first chunk is made here, so that the first far
  // event of a run allocates nothing.
  blocks_.release(blocks_.acquire());
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
  if ((slot.seq & ~kWheelBit) != seq) return false;  // ran, cancelled, or slot reused
  if (slot.seq & kWheelBit) ++wheel_dead_;
  slot.fn.reset();  // destroy the capture now, not at slot reuse
  slot.seq = 0;
  pool_.release(index);
  maybe_compact();
  return true;
}

bool Engine::park(SimTime t, std::uint64_t key) {
  const std::uint64_t bucket = bucket_of(t);
  if (wheel_size_ == 0) {
    cur_bucket_ = std::max(cur_bucket_, bucket_of(now_));
    if (bucket <= cur_bucket_) return false;
  }
  const std::uint64_t pos = bucket & (kWheelBuckets - 1);
  wheel_first_[pos] = std::min(wheel_first_[pos], bucket);
  std::uint32_t head = wheel_head_[pos];
  if (head == kNoBlock || blocks_[head].count == WheelBlock::kEntries) {
    const std::uint32_t fresh = blocks_.acquire();
    blocks_[fresh].next = head;
    blocks_[fresh].count = 0;
    wheel_head_[pos] = head = fresh;
    wheel_occupied_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
  }
  WheelBlock& block = blocks_[head];
  block.entries[block.count++] = {static_cast<std::uint64_t>(t), key};
  ++wheel_size_;
  return true;
}

inline void Engine::settle() {
  if (queue_.empty() && wheel_size_ != 0) advance_wheel();
}

std::uint64_t Engine::next_occupied(std::uint64_t* due) const {
  // Scan the occupancy words from the index after the current bucket,
  // wrapping around to the current bucket's own bit last.
  const std::uint64_t start = (cur_bucket_ + 1) & (kWheelBuckets - 1);
  std::uint64_t word = start >> 6;
  std::uint64_t bits = wheel_occupied_[word] & (~std::uint64_t{0} << (start & 63));
  while (bits == 0) {
    word = (word + 1) % std::size(wheel_occupied_);
    bits = wheel_occupied_[word];
  }
  const std::uint64_t pos = (word << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
  *due = cur_bucket_ + 1 + ((pos - start) & (kWheelBuckets - 1));
  return pos;
}

void Engine::advance_wheel() {
  do {
    std::uint64_t due;
    const std::uint64_t pos = next_occupied(&due);
    cur_bucket_ = due;
    if (wheel_first_[pos] == due) sweep_bucket(pos, /*migrate=*/true);
  } while (queue_.empty() && wheel_size_ != 0);
}

std::uint64_t Engine::peek_wheel() const {
  std::uint64_t due;
  const std::uint64_t pos = next_occupied(&due);
  if (wheel_first_[pos] != due) return 0;  // only later laps there
  QueueEntry best = ~QueueEntry{0};
  for (std::uint32_t b = wheel_head_[pos]; b != kNoBlock; b = blocks_[b].next) {
    const WheelBlock& block = blocks_[b];
    for (std::uint32_t i = 0; i < block.count; ++i) {
      const WheelEntry& e = block.entries[i];
      const auto time = static_cast<SimTime>(e.time);
      if (bucket_of(time) == due && parked_live(e.key)) best = std::min(best, make_entry(time, e.key));
    }
  }
  return best == ~QueueEntry{0} ? 0 : entry_key(best);
}

void Engine::sweep_bucket(std::uint64_t pos, bool migrate) {
  // Compacts the bucket's block list in place: a write cursor trails the
  // read cursor, and the blocks past the last written one are freed.
  const std::uint32_t head = wheel_head_[pos];
  std::uint32_t write = head;
  std::uint32_t written = 0;
  std::uint64_t first = ~std::uint64_t{0};
  for (std::uint32_t read = head; read != kNoBlock;) {
    const WheelBlock& block = blocks_[read];
    const std::uint32_t count = block.count;
    for (std::uint32_t i = 0; i < count; ++i) {
      const WheelEntry entry = block.entries[i];
      if (!parked_live(entry.key)) {
        --wheel_dead_;
        --wheel_size_;
        continue;
      }
      const std::uint64_t bucket = bucket_of(static_cast<SimTime>(entry.time));
      if (migrate && bucket == cur_bucket_) {
        pool_[static_cast<std::uint32_t>(entry.key & kSlotMask)].seq &= ~kWheelBit;
        queue_.push(make_entry(static_cast<SimTime>(entry.time), entry.key));
        --wheel_size_;
        continue;
      }
      assert(bucket > cur_bucket_ && "a wheel entry lies past the current bucket");
      if (written == WheelBlock::kEntries) {
        blocks_[write].count = written;
        write = blocks_[write].next;
        written = 0;
      }
      blocks_[write].entries[written++] = entry;
      first = std::min(first, bucket);
    }
    read = block.next;
  }
  wheel_first_[pos] = first;
  std::uint32_t spare;
  if (written == 0) {  // nothing kept: the bucket empties
    spare = head;
    wheel_head_[pos] = kNoBlock;
    wheel_occupied_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  } else {
    blocks_[write].count = written;
    spare = blocks_[write].next;
    blocks_[write].next = kNoBlock;
  }
  while (spare != kNoBlock) {
    const std::uint32_t next = blocks_[spare].next;
    blocks_.release(spare);
    spare = next;
  }
}

void Engine::maybe_compact() {
  // Lazy-cancel hygiene: cancelled entries stay queued until they are
  // popped from the heap or their wheel bucket comes due.  Workloads
  // that arm-and-cancel watchdogs far in the future (tree broadcasts,
  // subtask monitors) accumulate them; once more than half of heap plus
  // wheel is dead weight, sweep both tiers.  Each tier is swept only if
  // it holds dead entries, and the wheel sweep visits occupied buckets
  // only, so a compaction costs what the queue holds.
  const std::size_t total = queue_size();
  if (total < kCompactionMinQueue) return;
  const std::size_t stale = stale_entries();
  if (stale * 2 <= total) return;
  if (stale > wheel_dead_) {  // the heap holds some
    auto& entries = queue_.container();
    std::erase_if(entries, [this](const QueueEntry& e) { return !entry_live(e); });
    queue_.rebuild();
  }
  if (wheel_dead_ != 0) {
    for (std::uint64_t word = 0; word < std::size(wheel_occupied_); ++word) {
      for (std::uint64_t bits = wheel_occupied_[word]; bits != 0; bits &= bits - 1)
        sweep_bucket((word << 6) | static_cast<std::uint64_t>(std::countr_zero(bits)),
                     /*migrate=*/false);
    }
  }
  ++compactions_;
  // No gauge refresh here: cancel() may run inside a callback, where the
  // running event is still pending (see stale_entries()).  The next
  // periodic or end-of-run publish carries the shrunken queue.
  if (compaction_counter_) compaction_counter_->inc();
}

void Engine::publish_telemetry() {
  depth_gauge_->set(static_cast<double>(queue_size()));
  stale_gauge_->set(stale_ratio());
  executed_counter_->inc(static_cast<double>(executed_) - executed_counter_->value());
}

bool Engine::step() {
  for (;;) {
    settle();
    if (queue_.empty()) return false;
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
    // When the heap is empty the next entry may wait in the wheel; it is
    // only peeked at, since migrating now would move the current bucket
    // past the entries this callback is about to schedule.
    const EventSlot* next = nullptr;
    std::uint64_t next_seq = 0;
    std::uint64_t next_key = 0;
    if (!queue_.empty()) {
      next_key = entry_key(queue_.top());
      next_seq = next_key >> kSlotBits;
    } else if (wheel_size_ != 0) {
      next_key = peek_wheel();
      next_seq = (next_key >> kSlotBits) | kWheelBit;
    }
    if (next_key != 0) {
      next = &pool_[static_cast<std::uint32_t>(next_key & kSlotMask)];
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
}

void Engine::run_until(SimTime horizon) {
  for (;;) {
    settle();
    if (queue_.empty()) break;
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
