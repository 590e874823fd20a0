// Discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events firing at equal
// timestamps are ordered by insertion sequence, so a given (workload,
// config, seed) triple always produces the identical event trace. The
// pending-event queue is a binary heap of slim (timestamp, seq, slot) keys;
// each pending event's callback lives in an engine-owned slot store and
// runs in place when its key reaches the front. A continuation that one
// closure hands on to another is parked in the same store (sim::Parked).
// Callbacks that wait on model state rather than on time (the pfs
// client's dirty-budget, readahead-chunk and fsync waiters) are held by
// their model as sim::Callbacks outside the store, and run inline in the
// event that releases them.
// The PFS model in src/pfs builds client/server state machines on top of
// this; a federated run gives each cell an engine of its own.
//
// The engine draws no random numbers: models key their own streams by
// global component ids, so a run's seed never passes through here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/scheduler.hpp"

namespace stellar::sim {

/// A continuation parked in the engine's slot store: built in a free slot
/// but not queued. A closure that must hand on a continuation captures
/// this 4-byte handle instead of the continuation itself, which keeps
/// every capture list small enough to sit inline in its Callback. The
/// handle is consumed once, by SimEngine::scheduleAt/After (which queues
/// the slot, taking its FIFO seq at that call) or by SimEngine::run (which
/// invokes it in place). A handle dropped unconsumed keeps its slot until
/// the engine is destroyed, which releases the captures.
class Parked {
 public:
  Parked() noexcept = default;
  Parked(Parked&& other) noexcept : slot_(other.take()) {}
  Parked& operator=(Parked&& other) noexcept {
    slot_ = other.take();
    return *this;
  }
  Parked(const Parked&) = delete;
  Parked& operator=(const Parked&) = delete;

  [[nodiscard]] explicit operator bool() const noexcept { return slot_ != kNone; }

 private:
  friend class SimEngine;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit Parked(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t take() noexcept { return std::exchange(slot_, kNone); }

  std::uint32_t slot_ = kNone;
};

class SimEngine {
 public:
  SimEngine() = default;

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `at` (clamped to now).
  void scheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds (clamped to non-negative).
  void scheduleAfter(SimTime delay, Callback cb);

  /// Builds a Callback for any callable directly in its slot.
  template <EventCallable F>
  void scheduleAt(SimTime at, F&& fn) {
    pushKey(at, build(std::forward<F>(fn)));
  }

  template <EventCallable F>
  void scheduleAfter(SimTime delay, F&& fn) {
    scheduleAt(now_ + std::max(delay, 0.0), std::forward<F>(fn));
  }

  /// Builds `fn` in a free slot without queueing it; see Parked.
  template <EventCallable F>
  [[nodiscard]] Parked park(F&& fn) {
    return Parked{build(std::forward<F>(fn))};
  }

  /// Queues a parked continuation. Its seq is taken here, exactly as if a
  /// fresh callback were scheduled at this call.
  void scheduleAt(SimTime at, Parked parked) {
    assert(parked);
    pushKey(at, parked.take());
  }

  void scheduleAfter(SimTime delay, Parked parked) {
    scheduleAt(now_ + std::max(delay, 0.0), std::move(parked));
  }

  /// Invokes a parked continuation in place and frees its slot after it
  /// returns, as dispatch does; the clock does not move.
  void run(Parked parked) {
    assert(parked);
    invokeAndFree(parked.take());
  }

  /// Schedules a [begin, end) time window: `onOpen` fires at begin and
  /// `onClose` at end, both dispatched through the ordinary event queue so
  /// they order deterministically (FIFO seq) against every other event.
  /// The window's record holds both edges, so each queued edge captures
  /// only the record. The engine tracks how many windows are currently
  /// open; fault injection (src/faults) builds its state machine on this
  /// hook.
  template <EventCallable FOpen, EventCallable FClose>
  void scheduleWindow(SimTime begin, SimTime end, FOpen&& onOpen, FClose&& onClose) {
    WindowRecord& record = *windows_.emplace_back(std::make_unique<WindowRecord>());
    record.onOpen.assign(std::forward<FOpen>(onOpen));
    record.onClose.assign(std::forward<FClose>(onClose));
    spilled_ += static_cast<std::uint64_t>(record.onOpen.spilled()) +
                static_cast<std::uint64_t>(record.onClose.spilled());
    queueWindowEdges(begin, end, record);
  }

  /// Windows opened but not yet closed. Close edges past a runUntil()
  /// limit have not fired yet; cancelOpenWindows() retires them eagerly.
  [[nodiscard]] std::uint64_t openWindows() const noexcept { return openWindows_; }

  /// Fires the onClose handler of every currently-open window, in window
  /// creation order, without advancing the clock. Call after a capped
  /// runUntil() so window-scoped state (e.g. fault effects) resets cleanly
  /// before the next measurement; the still-queued close edges become
  /// no-ops.
  void cancelOpenWindows();

  /// Runs until the event queue drains. Returns the final clock value.
  SimTime run();

  /// Runs while events exist and their time <= limit; if the queue drains
  /// early the clock advances to the limit. Returns the final clock.
  SimTime runUntil(SimTime limit);

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t queueDepth() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept { return processed_; }

  /// Attaches (nullable) observability sinks. The drain loops emit one
  /// "sim" span per run()/runUntil() call plus a sampled queue-depth
  /// instant every kSampleEvery dispatches; event totals and the count of
  /// callbacks that spilled to the heap land in the registry. Costs a null
  /// check per event when detached.
  void attachObservability(obs::Tracer* tracer, obs::CounterRegistry* counters) noexcept {
    tracer_ = tracer;
    counters_ = counters;
    // Countdown form: the drain loop pays one decrement+compare per event
    // instead of a modulo. Sampling arms only if the tracer is enabled at
    // attach time — a detached or disabled tracer costs one compare per
    // event, identical to no tracer at all.
    sampleTick_ = obs::tracing(tracer) ? 1 : 0;
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct WindowRecord {
    Callback onOpen;
    Callback onClose;
    bool opened = false;
    bool closed = false;
  };

  static constexpr std::uint32_t kSlotChunkBits = 10;
  static constexpr std::uint32_t kSlotChunkSize = 1U << kSlotChunkBits;
  /// Dispatches between two sampled queue-depth instants.
  static constexpr std::uint64_t kSampleEvery = 4096;

  [[nodiscard]] Callback& slotAt(std::uint32_t slot) noexcept {
    return slotChunks_[slot >> kSlotChunkBits][slot & (kSlotChunkSize - 1)];
  }

  /// A free callback slot: the most recently released one, else a fresh
  /// slot (adding a chunk when the last one is full).
  std::uint32_t acquireSlot() {
    if (!freeSlots_.empty()) {
      const std::uint32_t slot = freeSlots_.back();
      freeSlots_.pop_back();
      return slot;
    }
    if ((slotsUsed_ & (kSlotChunkSize - 1)) == 0) {
      slotChunks_.push_back(std::make_unique<Callback[]>(kSlotChunkSize));
    }
    return slotsUsed_++;
  }

  /// Builds `fn` in a free slot; returns the slot.
  template <EventCallable F>
  std::uint32_t build(F&& fn) {
    const std::uint32_t slot = acquireSlot();
    slotAt(slot).assign(std::forward<F>(fn));
    if constexpr (!Callback::storesInline<std::decay_t<F>>) {
      ++spilled_;
    }
    return slot;
  }

  /// Queues the event in `slot` at `at` (clamped to now).
  void pushKey(SimTime at, std::uint32_t slot) {
    if (at < now_) {
      at = now_;
    }
    queue_.push(EventKey{at, nextSeq_++, slot});
  }

  /// Runs the callback in `slot` in place, then destroys it and recycles
  /// the slot.
  void invokeAndFree(std::uint32_t slot) {
    Callback& cb = slotAt(slot);
    if (cb) {
      cb();
    }
    cb.reset();
    freeSlots_.push_back(slot);
  }

  /// Pops the next event, advances the clock, runs its callback in place
  /// and recycles its slot.
  void dispatchNext();
  void queueWindowEdges(SimTime begin, SimTime end, WindowRecord& record);
  void closeWindow(WindowRecord& record);
  void noteDispatch();
  void finishDrain(obs::Tracer::Span& span, std::uint64_t dispatched);

  HeapScheduler queue_;
  /// Callbacks of pending events and parked continuations, in fixed-size
  /// chunks that never move: a dispatched or run callback runs in place
  /// even when it schedules enough events to grow the store. The slot is
  /// released after the callback returns, so it cannot be reused while it
  /// runs. Destroying the store releases whatever is still pending or
  /// parked.
  std::vector<std::unique_ptr<Callback[]>> slotChunks_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint32_t slotsUsed_ = 0;  ///< slots ever handed out
  std::vector<std::unique_ptr<WindowRecord>> windows_;
  SimTime now_ = 0.0;
  std::uint64_t openWindows_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t spilled_ = 0;  ///< spilled callbacks not yet flushed
  obs::Tracer* tracer_ = nullptr;
  obs::CounterRegistry* counters_ = nullptr;
  std::uint64_t sampleTick_ = 0;  ///< dispatches until the next sample; 0 = off
};

}  // namespace stellar::sim
