// Small-buffer, move-only callable wrapper for the event hot path.
//
// std::function heap-allocates any capture larger than its tiny SBO
// (two pointers on libstdc++) and drags copy-ability requirements along.
// Simulation events are one-shot, move-only and overwhelmingly small --
// a subsystem pointer plus a couple of ids -- so the engine stores them
// in a fixed-size inline buffer inside its event pool instead.  Captures
// that do not fit -- too large, or aligned beyond a pointer -- fall back
// to a single heap allocation (and the engine counts them, so oversized
// events are visible instead of silently slow).
//
// Differences from std::function, on purpose:
//   * move-only: events are consumed exactly once, and move-only
//     captures (unique_ptr and friends) are allowed;
//   * invoking an empty function is a programming error (assert), not a
//     bad_function_call -- the engine never stores empty handlers;
//   * relocation (move + destroy source) is a single vtable call;
//   * the buffer is pointer-aligned, not max_align_t-aligned: captures
//     are pointers, ids and handles, and dropping the 16-byte alignment
//     keeps the wrapper at 8 + Capacity bytes with no padding;
//   * prefetch() forwards to an inline callable's optional
//     `prefetch() const` member, a hint that the call is coming soon (the
//     engine uses it to start loading the next event's state).  Callables
//     without the member cost one null check.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace eslurm::util {

template <typename Signature, std::size_t Capacity = 64>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
  static_assert(Capacity >= sizeof(void*),
                "capacity must at least hold the heap-fallback pointer");

 public:
  static constexpr std::size_t kCapacity = Capacity;
  /// Alignment of the inline buffer; more-aligned captures go to the heap.
  static constexpr std::size_t kAlign = alignof(void*);

  /// True when callables of type F live in the inline buffer (the
  /// zero-allocation path); false when they take the heap fallback.
  template <typename F>
  static constexpr bool stores_inline_v =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= kAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& callable) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(callable));
  }

  /// Assigning a callable constructs it directly in this buffer -- no
  /// intermediate InplaceFunction, no relocation.  This is the event
  /// pool's fill path: `slot.fn = lambda` builds the capture in place.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction& operator=(F&& callable) {
    reset();
    construct(std::forward<F>(callable));
    return *this;
  }

  InplaceFunction(InplaceFunction&& other) noexcept { take(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  ~InplaceFunction() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// False only for engaged callables that took the heap fallback.
  bool is_inline() const noexcept { return !vtable_ || vtable_->inline_storage; }

  R operator()(Args... args) {
    assert(vtable_ && "invoking an empty InplaceFunction");
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Calls the stored callable's `prefetch() const`, if it has one.  A
  /// no-op for empty functions, heap-fallback callables and callables
  /// without the member.
  void prefetch() const {
    if (vtable_ && vtable_->prefetch) vtable_->prefetch(storage_);
  }

  void reset() noexcept {
    if (vtable_) {
      if (vtable_->destroy) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

 private:
  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& callable) {
    if constexpr (stores_inline_v<F>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(callable));
      vtable_ = inline_vtable<D>();
    } else {
      D* heap = new D(std::forward<F>(callable));
      std::memcpy(storage_, &heap, sizeof(heap));
      vtable_ = heap_vtable<D>();
    }
  }

  using PrefetchFn = void (*)(const void*);

  struct VTable {
    R (*invoke)(void*, Args&&...);
    /// Move-construct into dst from src, then destroy src's object.
    /// nullptr means "memcpy the whole buffer" -- the fast path for
    /// trivially copyable captures and for the heap fallback (whose
    /// buffer holds only the owning pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr for trivially destructible inline captures (no-op).
    void (*destroy)(void*) noexcept;
    /// The callable's `prefetch() const`; nullptr when it has none.
    PrefetchFn prefetch;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool has_prefetch_v = requires(const D& callable) { callable.prefetch(); };

  template <typename D>
  static constexpr PrefetchFn prefetch_of() {
    if constexpr (has_prefetch_v<D>) {
      return [](const void* object) {
        std::launder(reinterpret_cast<const D*>(object))->prefetch();
      };
    } else {
      return nullptr;
    }
  }

  template <typename D>
  static constexpr bool trivially_relocatable_v =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable table{
        [](void* object, Args&&... args) -> R {
          return (*std::launder(reinterpret_cast<D*>(object)))(
              std::forward<Args>(args)...);
        },
        trivially_relocatable_v<D>
            ? nullptr
            : +[](void* dst, void* src) noexcept {
                D* source = std::launder(reinterpret_cast<D*>(src));
                ::new (dst) D(std::move(*source));
                source->~D();
              },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void* object) noexcept {
                std::launder(reinterpret_cast<D*>(object))->~D();
              },
        prefetch_of<D>(),
        /*inline_storage=*/true};
    return &table;
  }

  template <typename D>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable table{
        [](void* object, Args&&... args) -> R {
          D* heap;
          std::memcpy(&heap, object, sizeof(heap));
          return (*heap)(std::forward<Args>(args)...);
        },
        /*relocate=*/nullptr,  // buffer holds just the pointer; memcpy moves it
        [](void* object) noexcept {
          D* heap;
          std::memcpy(&heap, object, sizeof(heap));
          delete heap;
        },
        /*prefetch=*/nullptr,  // the hint would cost the pointer load it saves
        /*inline_storage=*/false};
    return &table;
  }

  void take(InplaceFunction& other) noexcept {
    if (!other.vtable_) return;
    vtable_ = other.vtable_;
    if (vtable_->relocate)
      vtable_->relocate(storage_, other.storage_);
    else
      std::memcpy(storage_, other.storage_, Capacity);
    other.vtable_ = nullptr;
  }

  const VTable* vtable_ = nullptr;
  alignas(kAlign) unsigned char storage_[Capacity];
};

}  // namespace eslurm::util
