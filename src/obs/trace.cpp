#include "obs/trace.hpp"

#include <atomic>
#include <chrono>

namespace stellar::obs {
namespace {

double steadyUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t currentTid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Per-thread span nesting level (for depth tagging and nesting tests).
std::uint32_t& depthCounter() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

}  // namespace

Tracer::Tracer(TracerOptions options)
    : enabled_(options.enabled),
      capacity_(options.capacity == 0 ? 1 : options.capacity),
      epochUs_(steadyUs()) {}

double Tracer::nowUs() const { return steadyUs() - epochUs_; }

Tracer::Span::Span(Tracer* tracer, const char* category, std::string name)
    : tracer_(tracer) {
  record_.phase = TraceRecord::Phase::Span;
  record_.category = category;
  record_.name = std::move(name);
  record_.startUs = tracer->nowUs();
  record_.tid = currentTid();
  record_.depth = depthCounter()++;
}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Tracer::Span::arg(std::string key, util::Json value) {
  if (tracer_ != nullptr) {
    record_.args.push_back(TraceArg{std::move(key), std::move(value)});
  }
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.durUs = tracer_->nowUs() - record_.startUs;
  --depthCounter();
  tracer_->commit(std::move(record_));
  tracer_ = nullptr;
}

Tracer::Span Tracer::span(const char* category, std::string name) {
  if (!enabled()) {
    return {};
  }
  return Span{this, category, std::move(name)};
}

void Tracer::instant(const char* category, std::string name, std::vector<TraceArg> args) {
  if (!enabled()) {
    return;
  }
  TraceRecord record;
  record.phase = TraceRecord::Phase::Instant;
  record.category = category;
  record.name = std::move(name);
  record.startUs = nowUs();
  record.tid = currentTid();
  record.depth = depthCounter();
  record.args = std::move(args);
  commit(std::move(record));
}

void Tracer::commit(TraceRecord&& record) {
  const std::lock_guard<std::mutex> lock{mutex_};
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceRecord> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  // `head_` is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return total_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return total_ - ring_.size();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock{mutex_};
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

}  // namespace stellar::obs
