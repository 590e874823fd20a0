// Event callbacks, built in place in the engine's slot store.
//
// Every simulated RPC crosses the event queue several times, and with
// std::function each crossing pays a heap allocation for the closure. A
// sim::Callback is a type-erased void() callable that stores a closure of
// up to kInlineBytes in place and spills a larger one to the heap. It is
// neither copyable nor movable: the engine builds each closure in a slot
// with assign() (engine.hpp), where it runs and dies, so no closure is ever
// relocated. The buffer is sized so that no sim/pfs closure spills: a
// continuation that another closure would capture travels as a 4-byte
// sim::Parked handle to a slot of the engine, never as a nested Callback,
// so the largest capture list is an RPC description plus `this`. The
// engine counts the callbacks it stores that spilled
// (sim.callbacks_spilled), so a closure that outgrows the buffer shows up
// in the run's counters instead of as a silent malloc per event.
//
// The vtable pointer is also the storage discriminator: an inline closure
// and a spilled one get different vtables, so invoke and destroy are one
// indirect call each, with no branch on where the closure lives.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace stellar::sim {

/// Callables the engine accepts: anything invocable with no arguments.
template <typename F>
concept EventCallable = std::invocable<std::remove_cvref_t<F>&>;

/// Type-erased void() callable with small-buffer storage, filled in place.
class Callback {
 public:
  /// Closures at or under this size (with fundamental alignment) are
  /// stored inline; larger ones spill to the heap.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a closure of type F is stored inline.
  template <typename F>
  static constexpr bool storesInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t);

  Callback() noexcept = default;
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Replaces the held callable with `fn`, constructed in place.
  template <EventCallable F>
  void assign(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (storesInline<Fn>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(fn));
    } else {
      ::new (static_cast<void*>(buffer_)) Fn*(new Fn(std::forward<F>(fn)));
    }
    vt_ = vtableFor<Fn>();
  }

  /// Destroys the held callable, leaving the callback empty.
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buffer_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Invokes the callable. The callable stays live until destruction, but
  /// the engine treats callbacks as one-shot: dispatch then destroy.
  void operator()() { vt_->invoke(buffer_); }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };

  /// Inline closures live in the buffer; a spilled one is an F* there.
  template <typename F>
  static const VTable* vtableFor() noexcept {
    if constexpr (storesInline<F>) {
      static constexpr VTable vt{
          [](void* obj) { (*static_cast<F*>(obj))(); },
          [](void* obj) noexcept { static_cast<F*>(obj)->~F(); },
      };
      return &vt;
    } else {
      static constexpr VTable vt{
          [](void* obj) { (**static_cast<F**>(obj))(); },
          [](void* obj) noexcept { delete *static_cast<F**>(obj); },
      };
      return &vt;
    }
  }

  alignas(std::max_align_t) std::byte buffer_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace stellar::sim
