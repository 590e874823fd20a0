// Move-only event callbacks.
//
// Every simulated RPC crosses the event queue several times, and with
// std::function each crossing pays a heap allocation for the closure. A
// sim::Callback is a move-only type-erased void() callable that stores a
// closure of up to kInlineBytes in place and spills a larger one to the
// heap. The buffer is sized so that no sim/pfs closure spills: a
// continuation that another closure would capture travels as a 4-byte
// sim::Parked handle to a slot of the engine (engine.hpp), never as a
// nested Callback, so the largest capture list is an RPC description plus
// `this`. The engine counts the callbacks it stores that spilled
// (sim.callbacks_spilled), so a closure that outgrows the buffer shows up
// in the run's counters instead of as a silent malloc per event.
//
// The vtable pointer is also the storage discriminator: an inline closure
// and a spilled one get different vtables, so invoke, relocate and destroy
// are one indirect call each, with no branch on where the closure lives.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace stellar::sim {

class Callback;

/// Callables the scheduling templates accept: anything invocable with no
/// arguments except Callback itself (which has dedicated overloads).
template <typename F>
concept EventCallable =
    std::invocable<std::remove_cvref_t<F>&> &&
    !std::same_as<std::remove_cvref_t<F>, Callback>;

/// Move-only type-erased void() callable with small-buffer storage.
class Callback {
 public:
  /// Closures at or under this size (with fundamental alignment and a
  /// noexcept move) are stored inline; larger ones spill to the heap.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a closure of type F is stored inline.
  template <typename F>
  static constexpr bool storesInline = sizeof(F) <= kInlineBytes &&
                                       alignof(F) <= alignof(std::max_align_t) &&
                                       std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <EventCallable F>
  explicit Callback(F&& fn) {
    emplace<std::decay_t<F>>(std::forward<F>(fn));
  }

  Callback(Callback&& other) noexcept { stealFrom(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      stealFrom(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Replaces the held callable with `fn`, constructed in place, which
  /// saves the relocation of construct-then-move.
  template <EventCallable F>
  void assign(F&& fn) {
    reset();
    emplace<std::decay_t<F>>(std::forward<F>(fn));
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

  /// True when the closure spilled out of the inline buffer.
  [[nodiscard]] bool spilled() const noexcept { return vt_ != nullptr && vt_->spilled; }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    /// Moves the closure from `from` into `to` and ends it at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool spilled;
  };

  /// Inline closures live in the buffer; a spilled one is an F* there.
  template <typename F>
  static const VTable* vtableFor() noexcept {
    if constexpr (storesInline<F>) {
      static constexpr VTable vt{
          [](void* obj) { (*static_cast<F*>(obj))(); },
          [](void* from, void* to) noexcept {
            ::new (to) F(std::move(*static_cast<F*>(from)));
            static_cast<F*>(from)->~F();
          },
          [](void* obj) noexcept { static_cast<F*>(obj)->~F(); },
          false,
      };
      return &vt;
    } else {
      static constexpr VTable vt{
          [](void* obj) { (**static_cast<F**>(obj))(); },
          [](void* from, void* to) noexcept { ::new (to) F*(*static_cast<F**>(from)); },
          [](void* obj) noexcept { delete *static_cast<F**>(obj); },
          true,
      };
      return &vt;
    }
  }

  template <typename F, typename Arg>
  void emplace(Arg&& fn) {
    if constexpr (storesInline<F>) {
      ::new (static_cast<void*>(buffer_)) F(std::forward<Arg>(fn));
    } else {
      ::new (static_cast<void*>(buffer_)) F*(new F(std::forward<Arg>(fn)));
    }
    vt_ = vtableFor<F>();
  }

  void stealFrom(Callback& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(other.buffer_, buffer_);
      vt_ = std::exchange(other.vt_, nullptr);
    }
  }

  alignas(std::max_align_t) std::byte buffer_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace stellar::sim
