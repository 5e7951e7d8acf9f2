// Index-handled slab pools for steady-state-zero-allocation hot paths.
//
// A SlabPool hands out 32-bit slot indices into a growable slab.  Freed
// slots go on an intrusive LIFO free list and are *recycled as-is*:
// release() never destroys the stored T, so buffers the slot accumulated
// (heap message bodies, callback captures, vector capacity) survive into
// the next acquire and the steady state allocates nothing.  Callers
// overwrite the fields they use -- a recycled slot's old values are
// stale data, not cleared state.
//
// The free list is LIFO and the slab grows append-only, so the sequence
// of indices a deterministic caller observes is itself deterministic --
// pools never introduce cross-run divergence.
//
// Storage: fixed chunks of kChunkSlots slots, so a slot's address is
// stable across growth.  Slots must stay referenceable while arbitrary
// reentrant code runs (the network dispatches a handler while the send's
// slot is live, and the handler may send again; the sim engine invokes an
// event's callable in place while the callable schedules more events).
// Chunks are a power of two in size, so an index is a shift and a mask,
// and a new chunk default-constructs its slots up front.
//
// `SlotAlign` over-aligns each slot (the stored T plus its free-list
// link).  The engine uses 64 so that one event slot is one cache line;
// the default keeps the slot at its natural alignment, with no padding.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace eslurm::util {

template <typename T, std::size_t SlotAlign = alignof(T)>
class SlabPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNone = UINT32_MAX;
  /// Slots per chunk.
  static constexpr Index kChunkBits = 8;
  static constexpr Index kChunkSlots = Index{1} << kChunkBits;

  /// Returns a slot index: a recycled slot (contents stale, not reset)
  /// or a freshly default-constructed one appended to the slab.
  Index acquire() {
    if (free_head_ != kNone) {
      const Index index = free_head_;
      Slot& slot = slot_at(*this, index);
      free_head_ = slot.next_free;
      slot.next_free = kNone;
      ++in_use_;
      return index;
    }
    assert(size_ < kNone);
    if ((size_ & (kChunkSlots - 1)) == 0) store_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    ++in_use_;
    return size_++;
  }

  /// Returns a slot to the free list.  The stored T is kept alive for
  /// recycling; release heavyweight resources (payloads, callbacks)
  /// before releasing the slot if prompt reclamation matters.
  void release(Index index) {
    assert(index < size_);
    Slot& slot = slot_at(*this, index);
    assert(slot.next_free == kNone && "double release");
    slot.next_free = free_head_;
    free_head_ = index;
    --in_use_;
  }

  T& operator[](Index index) { return slot_at(*this, index).value; }
  const T& operator[](Index index) const { return slot_at(*this, index).value; }

  /// Slots ever handed out (live + recyclable); the pool's high-water mark.
  std::size_t capacity() const { return size_; }
  std::size_t in_use() const { return in_use_; }

 private:
  struct alignas(SlotAlign) Slot {
    T value{};
    Index next_free = kNone;
  };

 public:
  /// Bytes and alignment of one slot: the T plus the free-list link.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
  static constexpr std::size_t kSlotAlign = alignof(Slot);

 private:
  /// Shared by the const and non-const accessors.
  template <typename Self>
  static auto& slot_at(Self& self, Index index) {
    return self.store_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }

  std::vector<std::unique_ptr<Slot[]>> store_;
  Index size_ = 0;
  Index free_head_ = kNone;
  std::size_t in_use_ = 0;
};

}  // namespace eslurm::util
