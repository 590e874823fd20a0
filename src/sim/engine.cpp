#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace stellar::sim {

void SimEngine::scheduleAt(SimTime at, Callback cb) {
  const std::uint32_t slot = acquireSlot();
  spilled_ += static_cast<std::uint64_t>(cb.spilled());
  slotAt(slot) = std::move(cb);
  pushKey(at, slot);
}

void SimEngine::scheduleAfter(SimTime delay, Callback cb) {
  scheduleAt(now_ + std::max(delay, 0.0), std::move(cb));
}

void SimEngine::queueWindowEdges(SimTime begin, SimTime end, WindowRecord& record) {
  if (end < begin) {
    end = begin;
  }
  scheduleAt(begin, [this, &record] {
    record.opened = true;
    ++openWindows_;
    record.onOpen();
  });
  scheduleAt(end, [this, &record] { closeWindow(record); });
}

void SimEngine::closeWindow(WindowRecord& record) {
  if (!record.opened || record.closed) {
    return;
  }
  record.closed = true;
  --openWindows_;
  record.onClose();
}

void SimEngine::cancelOpenWindows() {
  // Window creation order, so cancellation is as deterministic as the
  // close edges it replaces.
  for (const std::unique_ptr<WindowRecord>& record : windows_) {
    closeWindow(*record);
  }
}

void SimEngine::dispatchNext() {
  const EventKey key = queue_.pop();
  now_ = key.at;
  ++processed_;
  noteDispatch();
  invokeAndFree(key.slot);
}

void SimEngine::noteDispatch() {
  // Sampled dispatch telemetry: a full span per event would swamp the
  // ring (runs dispatch millions), so every kSampleEvery-th dispatch
  // emits one instant carrying queue depth and simulated clock.
  if (sampleTick_ == 0 || --sampleTick_ != 0) {
    return;
  }
  sampleTick_ = kSampleEvery;
  if (obs::tracing(tracer_)) {
    tracer_->instant("sim", "dispatch",
                     {{"events", util::Json(static_cast<std::int64_t>(processed_))},
                      {"queue_depth", util::Json(static_cast<std::int64_t>(queueDepth()))},
                      {"sim_time", util::Json(now_)}});
  }
}

void SimEngine::finishDrain(obs::Tracer::Span& span, std::uint64_t dispatched) {
  if (span.active()) {
    span.arg("events", util::Json(static_cast<std::int64_t>(dispatched)));
    span.arg("sim_time", util::Json(now_));
  }
  if (counters_ != nullptr) {
    counters_->counter("sim.events_dispatched").add(static_cast<double>(dispatched));
    counters_->counter("sim.callbacks_spilled").add(static_cast<double>(spilled_));
    counters_->counter("sim.drains").add(1.0);
  }
  spilled_ = 0;
}

SimTime SimEngine::run() {
  obs::Tracer::Span span = obs::beginSpan(tracer_, "sim", "event-loop");
  const std::uint64_t before = processed_;
  while (!empty()) {
    dispatchNext();
  }
  finishDrain(span, processed_ - before);
  return now_;
}

SimTime SimEngine::runUntil(SimTime limit) {
  obs::Tracer::Span span = obs::beginSpan(tracer_, "sim", "event-loop-until");
  const std::uint64_t before = processed_;
  while (!empty() && queue_.top().at <= limit) {
    dispatchNext();
  }
  if (now_ < limit && empty()) {
    now_ = limit;
  }
  finishDrain(span, processed_ - before);
  return now_;
}

}  // namespace stellar::sim
