// Discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events firing at equal
// timestamps are ordered by insertion sequence, so a given (workload,
// config, seed) triple always produces the identical event trace. The
// pending-event queue is a binary heap of slim (timestamp, seq, slot) keys;
// each pending event's callback lives in an engine-owned slot store and
// runs in place when its key reaches the front. The PFS model in src/pfs
// builds client/server state machines on top of this; sim::ShardedEngine
// runs several independent engines side by side for federated clusters.
//
// Construction goes through sim::EngineOptions — the options struct is the
// only public constructor, mirroring pfs::SimulatorOptions.
#pragma once

#include <algorithm>
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

/// The single way to build an engine (and, via ShardedEngine, a shard
/// fleet). Aggregate-initialize with designated fields:
///   SimEngine engine{{.arenaBytes = 8 * 1024}};
/// The engine draws no random numbers: models key their own streams by
/// global component ids, so a run's seed never passes through here.
struct EngineOptions {
  /// First arena block size for event closures; the arena doubles from
  /// here on demand.
  std::size_t arenaBytes = 64 * 1024;
  /// Shard fan-out consumed by ShardedEngine (a bare SimEngine is always
  /// one shard).
  std::uint32_t shards = 1;
};

class SimEngine {
 public:
  explicit SimEngine(EngineOptions options = {});

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `at` (clamped to now).
  void scheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds (clamped to non-negative).
  void scheduleAfter(SimTime delay, Callback cb);

  /// Convenience: builds an arena-backed Callback for any callable,
  /// directly in its slot.
  template <EventCallable F>
  void scheduleAt(SimTime at, F&& fn) {
    const std::uint32_t slot = acquireSlot();
    slotAt(slot).assign(arena_, std::forward<F>(fn));
    pushKey(at, slot);
  }

  template <EventCallable F>
  void scheduleAfter(SimTime delay, F&& fn) {
    scheduleAt(now_ + std::max(delay, 0.0), std::forward<F>(fn));
  }

  /// Schedules a [begin, end) time window: `onOpen` fires at begin and
  /// `onClose` at end, both dispatched through the ordinary event queue so
  /// they order deterministically (FIFO seq) against every other event.
  /// The engine tracks how many windows are currently open; fault
  /// injection (src/faults) builds its state machine on this hook.
  void scheduleWindow(SimTime begin, SimTime end, Callback onOpen, Callback onClose);

  template <EventCallable FOpen, EventCallable FClose>
  void scheduleWindow(SimTime begin, SimTime end, FOpen&& onOpen, FClose&& onClose) {
    scheduleWindow(begin, end, Callback{arena_, std::forward<FOpen>(onOpen)},
                   Callback{arena_, std::forward<FClose>(onClose)});
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

  /// Arena backing event closures; resets when the engine is destroyed.
  [[nodiscard]] EventArena& arena() noexcept { return arena_; }

  /// Attaches (nullable) observability sinks. The drain loops emit one
  /// "sim" span per run()/runUntil() call plus a sampled queue-depth
  /// instant every `sampleEvery` dispatches; event totals land in the
  /// registry. Costs a null check per event when detached.
  void attachObservability(obs::Tracer* tracer, obs::CounterRegistry* counters,
                           std::uint64_t sampleEvery = 4096) noexcept {
    tracer_ = tracer;
    counters_ = counters;
    sampleEvery_ = sampleEvery == 0 ? 1 : sampleEvery;
    // Countdown form: the drain loop pays one decrement+compare per event
    // instead of a modulo. Sampling arms only if the tracer is enabled at
    // attach time — a detached or disabled tracer costs one compare per
    // event, identical to no tracer at all.
    sampleTick_ = obs::tracing(tracer) ? 1 : 0;
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct WindowRecord {
    Callback onClose;
    bool opened = false;
    bool closed = false;
  };

  static constexpr std::uint32_t kSlotChunkBits = 10;
  static constexpr std::uint32_t kSlotChunkSize = 1U << kSlotChunkBits;

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

  /// Queues the event in `slot` at `at` (clamped to now).
  void pushKey(SimTime at, std::uint32_t slot) {
    if (at < now_) {
      at = now_;
    }
    queue_.push(EventKey{at, nextSeq_++, slot});
  }

  /// Pops the next event, advances the clock, runs its callback in place
  /// and recycles its slot.
  void dispatchNext();
  void closeWindow(WindowRecord& record);
  void noteDispatch();
  void finishDrain(obs::Tracer::Span& span, std::uint64_t dispatched);

  EngineOptions options_;
  // The arena must outlive every pending Callback: declared before the
  // slot store and window records so it is destroyed last.
  EventArena arena_;
  HeapScheduler queue_;
  /// Callbacks of pending events, in fixed-size chunks that never move: a
  /// dispatched callback runs in place even when it schedules enough
  /// events to grow the store. The slot is released after the callback
  /// returns, so it cannot be reused while it runs.
  std::vector<std::unique_ptr<Callback[]>> slotChunks_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint32_t slotsUsed_ = 0;  ///< slots ever handed out
  std::vector<std::unique_ptr<WindowRecord>> windows_;
  SimTime now_ = 0.0;
  std::uint64_t openWindows_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::CounterRegistry* counters_ = nullptr;
  std::uint64_t sampleEvery_ = 4096;
  std::uint64_t sampleTick_ = 0;  ///< dispatches until the next sample; 0 = off
};

}  // namespace stellar::sim
