// Deterministic discrete-event simulation engine.
//
// The engine is the substrate every other ESLURM subsystem runs on: the
// simulated network, node failure injection, RM daemons and schedulers all
// schedule callbacks here.  Events with equal timestamps execute in
// scheduling order (FIFO tie-break), which makes whole-cluster runs
// bit-reproducible.
//
// Hot-path design (PR 5, "zero-allocation event core"): events live in a
// slab pool of fixed-size slots, each holding the callable inline in an
// InplaceFunction (heap fallback only for oversized captures, counted by
// heap_fallback_events()).  An EventId is the slot index plus a per-slot
// generation, so cancel() is an O(1) generation check -- no hash map, no
// per-event allocation -- and a recycled slot can never be cancelled
// through a stale handle (ABA safety).  Execution order is decided only
// by the (time, seq) pair where `seq` is the monotonically increasing
// scheduling sequence number; pooling therefore cannot perturb event
// order, which the golden-sequence test pins bit-for-bit.
//
// Two-tier queue: a 4-ary min-heap holds the entries due in the current
// bucket of simulated time (2^30 ns, about 1.07 s); a hashed timing wheel
// (Varghese & Lauck, SOSP 1987) of 512 buckets holds everything due
// later, laps included.  Watchdogs that are armed and cancelled minutes
// ahead and job ends hours ahead therefore never enter the heap; a
// bucket's live entries are pushed into it, with their original
// (time, seq) key, only once the heap holds nothing earlier, so the
// execution order is exactly that of a single heap.  DESIGN.md §10
// describes the tiers, the residency bit and the compaction rule.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "util/inplace_function.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"

namespace eslurm::telemetry {
class Counter;
class Gauge;
struct Telemetry;
}  // namespace eslurm::telemetry

namespace eslurm::sim {

/// Handle for a scheduled event; can be used to cancel it.  Packs the
/// pool slot (low 24 bits) and the event's scheduling sequence number
/// (high 40 bits).  The sequence number is globally unique per schedule,
/// so it doubles as the slot's generation: a recycled slot never matches
/// a stale handle (ABA safety).  Sequence numbers are never 0 (they start
/// at 1 and the 40-bit counter skips 0 when it wraps), so a valid id is
/// never 0 and a slot whose sequence is 0 holds no pending event; the
/// packing caps a single engine at 2^24 concurrently pending events and
/// 2^40 total schedules (~10^12, years of sim work).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Inline capture budget for one event.  Sized so the common captures --
/// a subsystem pointer plus a few ids, a pooled-send handle, a small
/// struct -- stay inline, and so that the callable (8-byte vtable pointer
/// plus this buffer), the slot's sequence number and the pool's free-list
/// link fill exactly one 64-byte cache line.  Larger (or more than
/// pointer-aligned) captures fall back to one heap allocation and are
/// counted (Engine::heap_fallback_events).
inline constexpr std::size_t kEventInlineBytes = 40;

/// The engine's event callable: one-shot, move-only, small-buffer.
/// Lambdas convert implicitly, exactly as with std::function.
using EventFn = util::InplaceFunction<void(), kEventInlineBytes>;

class Engine {
 public:
  /// An engine optionally carries the experiment's telemetry context;
  /// subsystems built on top reach it through `telemetry()`, so one
  /// injection point covers the whole world.  A disabled context is
  /// treated as absent (instrument caching happens at construction).
  explicit Engine(telemetry::Telemetry* telemetry = nullptr);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// The telemetry context this world publishes to; nullptr when
  /// telemetry is off.  The fast path for instrumented code is
  /// `if (auto* t = engine.telemetry()) ...` -- one pointer check.
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now).  A template
  /// so the capture is constructed directly in its pool slot -- the
  /// zero-allocation fill path has no intermediate wrapper and no
  /// relocation.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    if (t < now_)
      throw std::invalid_argument("Engine::schedule_at: time in the past");
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      if (!fn.is_inline()) ++heap_fallbacks_;
    } else if constexpr (!EventFn::stores_inline_v<F>) {
      ++heap_fallbacks_;
    }
    const std::uint32_t index = pool_.acquire();
    EventSlot& slot = pool_[index];
    std::uint64_t seq = next_seq_++ & kSeqMask;
    if (seq == 0) seq = next_seq_++ & kSeqMask;  // 0 marks a dead slot
    slot.fn = std::forward<F>(fn);
    const EventId id = (seq << kSlotBits) | index;
    // Recycled handles to this slot die here (ABA safety).
    if (bucket_of(t) > cur_bucket_ && park(t, id)) {
      slot.seq = seq | kWheelBit;
    } else {
      slot.seq = seq;
      queue_.push(make_entry(t, id));
    }
    return id;
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn) {
    if (delay < 0)
      throw std::invalid_argument("Engine::schedule_after: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event.  Returns false if it already ran, was
  /// already cancelled, or the id is unknown.
  bool cancel(EventId id);

  bool has_pending() const { return pool_.in_use() > 0; }
  /// Events scheduled and neither executed nor cancelled.  The event
  /// whose callback is running still counts: its slot is released only
  /// after the callback returns.
  std::size_t pending_count() const { return pool_.in_use(); }

  /// Executes the next event.  Returns false if the queue is empty.
  /// Pipelined over two events: it prefetches the next entry's slot
  /// before running the callback and, once the callback returns, calls
  /// that entry's `prefetch()` hook if the entry is still live (see
  /// util::InplaceFunction::prefetch).  A hook is const and has no
  /// observable effects: it may run for an event that is then cancelled
  /// or overtaken by an earlier one.
  bool step();

  /// Runs events until the queue drains or the horizon passes.  The clock
  /// is left at min(horizon, last event time).  Events scheduled exactly
  /// at the horizon still execute.
  void run_until(SimTime horizon);

  /// Runs until no events remain.
  void run();

  /// Total number of executed events (for sanity checks / reports).
  std::uint64_t executed_events() const { return executed_; }

  /// Test/verification hook: invoked for every executed event with the
  /// event's execution time and its monotonic scheduling sequence number
  /// (the FIFO tie-break key).  The golden-sequence determinism test
  /// hashes this stream; a null observer costs one branch per event.
  using ExecObserver = void (*)(void* ctx, SimTime time, std::uint64_t seq);
  void set_exec_observer(ExecObserver observer, void* ctx) {
    observer_ = observer;
    observer_ctx_ = ctx;
  }

  // --- queue hygiene ---------------------------------------------------
  /// Total queue entries in both tiers (heap plus wheel), live plus
  /// cancelled-but-unswept.
  std::size_t queue_size() const { return queue_.size() + wheel_size_; }
  /// Cancelled entries still occupying either tier.  `cancel()` only
  /// frees the event slot; the entry stays queued until it is popped
  /// from the heap, its wheel bucket comes due, or a compaction sweeps
  /// it.  Inside a callback the running event counts as pending (see
  /// pending_count()) although its entry is already popped, so the
  /// figure there is one lower than the true stale count and wraps when
  /// no entry is stale; read it between events.
  std::size_t stale_entries() const { return queue_size() - pool_.in_use(); }
  /// Stale fraction of the queue (0 when empty).
  double stale_ratio() const {
    return queue_size() == 0 ? 0.0
                             : static_cast<double>(stale_entries()) /
                                   static_cast<double>(queue_size());
  }
  /// Times the queue was compacted because stale entries exceeded half
  /// of heap plus wheel.  Watchdog-heavy workloads (broadcast trees arm
  /// one watchdog per child and cancel nearly all of them) previously
  /// grew the queue until the cancelled timestamps were reached.
  std::uint64_t compactions() const { return compactions_; }

  // --- pool introspection ----------------------------------------------
  /// Event slots ever created (the pool's high-water mark); steady-state
  /// workloads stop growing this once warmed up.
  std::size_t event_pool_capacity() const { return pool_.capacity(); }
  /// Events whose captures exceeded kEventInlineBytes and took the heap
  /// fallback.  Keep this at 0 on hot paths.
  std::uint64_t heap_fallback_events() const { return heap_fallbacks_; }

 private:
  /// EventId packing: high 40 bits scheduling sequence, low 24 bits slot.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
  /// Set in EventSlot::seq while the event's entry waits in the wheel.
  /// Sequences use 40 bits, so the bit never collides with one; a heap
  /// entry's slot never carries it, so live_key() needs no mask.
  static constexpr std::uint64_t kWheelBit = 1ull << 63;

  /// Far-tier geometry.  A bucket spans 2^30 ns (about 1.07 s): wide
  /// enough that the RM's 1-10 s watchdogs and the 120-300 s tree
  /// watchdogs leave the heap, narrow enough that a bucket migrated into
  /// the heap stays small.  512 buckets make one lap about 9 minutes;
  /// an entry further ahead stays in its bucket across laps until its
  /// own lap comes.
  static constexpr unsigned kBucketShift = 30;
  static constexpr std::uint64_t kWheelBuckets = 512;
  static std::uint64_t bucket_of(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kBucketShift;
  }

  struct EventSlot {
    EventFn fn;
    /// Sequence of the pending event in this slot, plus kWheelBit while
    /// its entry is in the wheel; 0 once it executed (from the start of
    /// its callback) or was cancelled.
    std::uint64_t seq = 0;
  };
  /// Callable, sequence and free-list link: one cache line per slot.
  using EventPool = util::SlabPool<EventSlot, /*SlotAlign=*/64>;
  static_assert(EventPool::kSlotBytes == 64 && EventPool::kSlotAlign == 64,
                "an event slot must be exactly one 64-byte line");

  /// One queue entry, packed into a single 128-bit integer: execution
  /// time in the high 64 bits, the EventId key in the low 64.  The key's
  /// high bits are the scheduling sequence number, so one unsigned
  /// 128-bit compare IS the (time, FIFO tie-break) order -- two ALU
  /// instructions, no branches -- and the order is total (sequence
  /// numbers are unique).  SimTime is never negative (schedule_at
  /// enforces t >= now >= 0), so the unsigned compare is exact.
  using QueueEntry = unsigned __int128;
  static constexpr QueueEntry make_entry(SimTime time, std::uint64_t key) {
    return (static_cast<QueueEntry>(static_cast<std::uint64_t>(time)) << 64) |
           key;
  }
  static constexpr SimTime entry_time(QueueEntry e) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(e >> 64));
  }
  static constexpr std::uint64_t entry_key(QueueEntry e) {
    return static_cast<std::uint64_t>(e);
  }

  /// Min-heap of queue entries, 4-ary instead of binary: half the levels
  /// of a binary heap, and each node's children are 4 consecutive
  /// 16-byte entries -- 64 bytes, though not line-aligned, so usually two
  /// lines -- so the pop-side sift-down (the hot operation: every
  /// executed event pops) touches ~2 log4(n) lines.  Padding the heap so
  /// that each child block sits on one line measured no faster.
  /// Any correct heap pops the same sequence under the total entry
  /// order, so the heap shape cannot perturb event order.
  class EventHeap {
   public:
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    QueueEntry top() const { return entries_.front(); }

    void push(QueueEntry entry) {
      std::size_t i = entries_.size();
      entries_.push_back(entry);
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (entry >= entries_[parent]) break;
        entries_[i] = entries_[parent];
        i = parent;
      }
      entries_[i] = entry;
    }

    void pop() {
      const QueueEntry last = entries_.back();
      entries_.pop_back();
      const std::size_t n = entries_.size();
      if (n == 0) return;
      // Two sift strategies, picked adaptively per workload phase (the
      // choice only affects layout, never which entry is the min, so it
      // cannot perturb event order):
      //  * bottom-up (Wegener): walk the root hole to a leaf with
      //    child-min compares only, then bubble `last` up.  Optimal when
      //    the replacement belongs near the bottom -- steady rescheduling
      //    churn, where the newest entry is among the largest.
      //  * standard sift-down with an exit test per level.  Optimal when
      //    the replacement belongs near the top -- draining a burst of
      //    near-equal times, where bottom-up would bubble most of the
      //    way back.
      if (bottom_up_) {
        std::size_t i = 0;
        for (;;) {
          const std::size_t first = 4 * i + 1;
          if (first >= n) break;
          const std::size_t end = first + 4 < n ? first + 4 : n;
          std::size_t best = first;
          for (std::size_t c = first + 1; c < end; ++c)
            if (entries_[c] < entries_[best]) best = c;
          entries_[i] = entries_[best];
          i = best;
        }
        std::size_t rose = 0;
        while (i > 0) {
          const std::size_t parent = (i - 1) >> 2;
          if (last >= entries_[parent]) break;
          entries_[i] = entries_[parent];
          i = parent;
          ++rose;
        }
        entries_[i] = last;
        bottom_up_ = rose <= 1;
      } else {
        const std::size_t i = sift_down(0, last);
        entries_[i] = last;
        bottom_up_ = 4 * i + 1 >= n;  // landed on a leaf: bottom-up is cheaper
      }
    }

    /// Direct access for compaction sweeps; call rebuild() afterwards.
    std::vector<QueueEntry>& container() { return entries_; }

    /// Restores the heap property after the container was edited.
    void rebuild() {
      if (entries_.size() < 2) return;
      for (std::size_t i = (entries_.size() - 2) >> 2; i + 1 > 0; --i) {
        const QueueEntry value = entries_[i];
        entries_[sift_down(i, value)] = value;
      }
    }

   private:
    /// Sifts the hole at `i` down until `value` fits; returns the hole's
    /// final index (the caller stores `value` there).
    std::size_t sift_down(std::size_t i, QueueEntry value) {
      const std::size_t n = entries_.size();
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c)
          if (entries_[c] < entries_[best]) best = c;
        if (entries_[best] >= value) break;
        entries_[i] = entries_[best];
        i = best;
      }
      return i;
    }

    std::vector<QueueEntry> entries_;
    bool bottom_up_ = true;
  };

  /// One wheel entry: a QueueEntry split into two words, so that a
  /// block is 8-byte aligned and fills its pool slot exactly.
  struct WheelEntry {
    std::uint64_t time;
    std::uint64_t key;
  };
  /// A bucket is a singly linked list of blocks, newest first; only the
  /// head block has room.  Blocks come from a slab pool, so the wheel
  /// reuses freed blocks and allocates nothing in a steady state.
  struct WheelBlock {
    static constexpr std::uint32_t kEntries = 31;
    WheelEntry entries[kEntries];
    std::uint32_t next = UINT32_MAX;
    std::uint32_t count = 0;
  };
  /// Entries, link, count and the pool's free-list link: 512 bytes.
  using BlockPool = util::SlabPool<WheelBlock>;
  static_assert(BlockPool::kSlotBytes == 512, "a wheel block must be 512 bytes");
  static constexpr std::uint32_t kNoBlock = BlockPool::kNone;

  /// Queued keys always carry a nonzero sequence, so a dead slot
  /// (seq 0) never matches.
  bool live_key(std::uint64_t key) const {
    return pool_[key & kSlotMask].seq == key >> kSlotBits;
  }
  bool entry_live(QueueEntry entry) const { return live_key(entry_key(entry)); }
  bool parked_live(std::uint64_t key) const {
    return pool_[key & kSlotMask].seq == ((key >> kSlotBits) | kWheelBit);
  }

  /// Adds an entry due after the current bucket to the wheel and returns
  /// true, or returns false when the entry belongs in the heap: while
  /// the wheel is empty the current bucket follows the clock, and
  /// catching up here may put `t` in it.
  bool park(SimTime t, std::uint64_t key);
  /// Makes the heap top the earliest entry of both tiers.  Heap entries
  /// never lie past the current bucket and wheel entries always do, so
  /// only an empty heap needs work: advance_wheel() then moves to the
  /// next occupied bucket and migrates its entries of the current lap,
  /// until the heap holds one or the wheel is empty.
  void settle();
  void advance_wheel();
  /// The next occupied wheel index after the current bucket, 1 to
  /// kWheelBuckets steps ahead, and the bucket number it stands for on
  /// this lap.  The wheel must not be empty.
  std::uint64_t next_occupied(std::uint64_t* due) const;
  /// The key of the earliest live entry the next bucket will migrate, or
  /// 0: the prefetch hint for a step that empties the heap.
  std::uint64_t peek_wheel() const;
  /// Drops the dead entries of bucket `pos` and, when `migrate` is set,
  /// moves the live entries of the current bucket into the heap; frees
  /// the blocks that empties.
  void sweep_bucket(std::uint64_t pos, bool migrate);
  void maybe_compact();
  void publish_telemetry();

  telemetry::Telemetry* telemetry_ = nullptr;
  ExecObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  EventHeap queue_;
  /// The far tier.  Every wheel entry's bucket is past cur_bucket_ and
  /// every heap entry's is not; cur_bucket_ never decreases.  A bucket's
  /// entries sit at index bucket % kWheelBuckets, whatever their lap.  `wheel_occupied_` has one bit per non-empty bucket, so
  /// finding the next due bucket and sweeping the wheel cost what it
  /// holds, not its 512 headers.
  std::uint64_t cur_bucket_ = 0;
  std::size_t wheel_size_ = 0;
  std::size_t wheel_dead_ = 0;  ///< cancelled entries still in the wheel
  std::uint32_t wheel_head_[kWheelBuckets];
  /// Per index, a lower bound on the bucket numbers it holds (exact
  /// after a sweep, all ones when empty): a visit finds an index with
  /// nothing due on this lap without reading its entries.
  std::uint64_t wheel_first_[kWheelBuckets];
  std::uint64_t wheel_occupied_[kWheelBuckets / 64] = {};
  BlockPool blocks_;
  /// Stable (chunked) storage: step() invokes the callable in place,
  /// and a callback that schedules new events may grow the pool without
  /// relocating the storage the executing callable lives in.
  EventPool pool_;

  // Cached instruments (null when telemetry was disabled at construction
  // time) keep the per-event overhead to a pointer check.
  telemetry::Counter* executed_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;
  telemetry::Gauge* stale_gauge_ = nullptr;
  telemetry::Counter* compaction_counter_ = nullptr;
};

/// Repeating callback helper (heartbeats, samplers, retrain timers...).
/// The callback may stop the task from inside itself.
class PeriodicTask {
 public:
  PeriodicTask(Engine& engine, SimTime period, std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start(SimTime first_delay = 0);
  void stop();
  bool running() const { return running_; }

 private:
  void arm(SimTime delay);

  Engine& engine_;
  SimTime period_;
  std::function<void()> fn_;
  EventId pending_ = kInvalidEvent;
  bool running_ = false;
};

}  // namespace eslurm::sim
