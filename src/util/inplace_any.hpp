// Small-buffer, copyable type-erased value for message bodies.
//
// std::any heap-allocates every body larger than one pointer, so carrying
// control messages (relay, completion, task ...) in it costs an
// allocation per send and another per copy.  Those bodies are a handful
// of ids -- small and trivially copyable -- so InplaceAny stores them in
// a fixed inline buffer and copies them with one memcpy.  Anything else
// (bodies owning strings or vectors, such as WAL batches and snapshot
// chunks) falls back to one heap-allocated object per value, exactly as
// std::any would.  Same idiom as util::InplaceFunction: one static
// vtable per stored type, nullptr entries for the trivial operations.
//
// Differences from std::any, on purpose:
//   * the vtable pointer doubles as the type tag, so get<T>() is one
//     pointer compare (a mismatch still throws std::bad_any_cast);
//   * only trivially copyable types are stored inline, so copy, move and
//     destroy of an inline value never run user code.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace eslurm::util {

template <std::size_t Capacity>
class InplaceAny {
  static_assert(Capacity >= sizeof(void*),
                "capacity must at least hold the heap-fallback pointer");

 public:
  /// True when values of type T live in the inline buffer (the
  /// zero-allocation path); false when they take the heap fallback.
  template <typename T>
  static constexpr bool stores_inline_v =
      sizeof(T) <= Capacity && alignof(T) <= alignof(std::uint64_t) &&
      std::is_trivially_copyable_v<T>;

  InplaceAny() noexcept = default;

  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceAny>>>
  InplaceAny(T&& value) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<T>(value));
  }

  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceAny>>>
  InplaceAny& operator=(T&& value) {
    reset();
    construct<D>(std::forward<T>(value));
    return *this;
  }

  InplaceAny(const InplaceAny& other) { copy_from(other); }
  InplaceAny& operator=(const InplaceAny& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  InplaceAny(InplaceAny&& other) noexcept { take(other); }
  InplaceAny& operator=(InplaceAny&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~InplaceAny() { reset(); }

  bool has_value() const noexcept { return vtable_ != nullptr; }

  /// False only for engaged values that took the heap fallback.
  bool is_inline() const noexcept { return !vtable_ || vtable_->inline_storage; }

  /// The stored T; throws std::bad_any_cast when the value is not a T.
  template <typename T>
  const T& get() const {
    if (vtable_ != vtable_for<T>()) throw std::bad_any_cast();
    if constexpr (stores_inline_v<T>) {
      return *std::launder(reinterpret_cast<const T*>(storage_));
    } else {
      return *heap_ptr<T>(storage_);
    }
  }

  void reset() noexcept {
    if (vtable_) {
      if (vtable_->destroy) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    /// Copy-construct into dst from src; nullptr means memcpy the buffer.
    void (*copy)(void* dst, const void* src);
    /// nullptr for inline values (trivially destructible).
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename T>
  static T* heap_ptr(const void* storage) noexcept {
    T* heap;
    std::memcpy(&heap, storage, sizeof(heap));
    return heap;
  }

  template <typename T>
  static const VTable* vtable_for() noexcept {
    if constexpr (stores_inline_v<T>) {
      static constexpr VTable table{nullptr, nullptr, /*inline_storage=*/true};
      return &table;
    } else {
      static constexpr VTable table{
          [](void* dst, const void* src) {
            T* heap = new T(*heap_ptr<T>(src));
            std::memcpy(dst, &heap, sizeof(heap));
          },
          [](void* object) noexcept { delete heap_ptr<T>(object); },
          /*inline_storage=*/false};
      return &table;
    }
  }

  template <typename D, typename T>
  void construct(T&& value) {
    if constexpr (stores_inline_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<T>(value));
    } else {
      D* heap = new D(std::forward<T>(value));
      std::memcpy(storage_, &heap, sizeof(heap));
    }
    vtable_ = vtable_for<D>();
  }

  void copy_from(const InplaceAny& other) {
    if (!other.vtable_) return;
    if (other.vtable_->copy)
      other.vtable_->copy(storage_, other.storage_);
    else
      std::memcpy(storage_, other.storage_, Capacity);
    vtable_ = other.vtable_;
  }

  /// Inline values and heap pointers both move by memcpy.
  void take(InplaceAny& other) noexcept {
    if (!other.vtable_) return;
    std::memcpy(storage_, other.storage_, Capacity);
    vtable_ = other.vtable_;
    other.vtable_ = nullptr;
  }

  const VTable* vtable_ = nullptr;
  alignas(std::uint64_t) unsigned char storage_[Capacity];
};

}  // namespace eslurm::util
