// Low-overhead tracer: scoped spans and typed instant events collected in
// a bounded ring buffer, exportable as JSONL or Chrome trace (export.hpp).
//
// Cost model:
//  - no tracer attached      -> a null-pointer check at each site
//  - attached but disabled   -> one load per site (fixed at construction)
//  - enabled                 -> record assembly + one mutex-guarded push
//    (the harness runs repeats on a thread pool, so commits synchronize)
//
// Spans carry a static category string ("sim", "rpc", "tuning", "harness")
// that becomes the Chrome trace `cat` field; args are typed util::Json
// values. The RAII Span accumulates locally and commits on end()/dtor, so
// an in-flight span costs nothing but stack space.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace stellar::obs {

/// One typed key/value attached to a span or instant event.
struct TraceArg {
  std::string key;
  util::Json value;
};

/// A finished span or instant event as stored in the ring.
struct TraceRecord {
  enum class Phase : std::uint8_t { Span, Instant };
  Phase phase = Phase::Span;
  std::string category;  ///< short, from a fixed vocabulary ("sim", "rpc", ...)
  std::string name;
  double startUs = 0.0;  ///< wall microseconds since tracer construction
  double durUs = 0.0;    ///< 0 for instants
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< span nesting level on the emitting thread
  std::vector<TraceArg> args;
};

struct TracerOptions {
  bool enabled = true;
  std::size_t capacity = 1 << 16;  ///< ring slots; oldest records drop first
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: records [construction, end()] while the owning tracer is
  /// enabled. A default-constructed (or disabled-at-begin) span is inert.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

    /// Attaches a typed argument (no-op when inert).
    void arg(std::string key, util::Json value);

    /// Commits the record; idempotent.
    void end();

   private:
    friend class Tracer;
    Span(Tracer* tracer, const char* category, std::string name);

    Tracer* tracer_ = nullptr;
    TraceRecord record_;
  };

  /// Starts a span; inert when the tracer is disabled.
  [[nodiscard]] Span span(const char* category, std::string name);

  /// Records a zero-duration event.
  void instant(const char* category, std::string name, std::vector<TraceArg> args = {});

  /// Wall-clock microseconds since tracer construction.
  [[nodiscard]] double nowUs() const;

  /// Chronologically ordered copy of the ring contents.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  [[nodiscard]] std::uint64_t recorded() const;  ///< total committed
  [[nodiscard]] std::uint64_t dropped() const;   ///< overwritten by the ring
  void clear();

 private:
  void commit(TraceRecord&& record);

  const bool enabled_;
  std::size_t capacity_;
  double epochUs_;  ///< steady-clock microseconds at construction

  mutable std::mutex mutex_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< next overwrite slot once full
  std::uint64_t total_ = 0;
};

/// Null-safe helpers: the recommended call form throughout the codebase.
/// `tracer` may be nullptr (observability not wired up at all).
///
/// Hot paths should branch on tracing() BEFORE building names/args —
/// instant()/beginSpan() check too, but by then the caller has already
/// paid for the argument vector.
[[nodiscard]] inline bool tracing(const Tracer* tracer) noexcept {
  return tracer != nullptr && tracer->enabled();
}

[[nodiscard]] inline Tracer::Span beginSpan(Tracer* tracer, const char* category,
                                            std::string name) {
  if (tracer == nullptr || !tracer->enabled()) {
    return {};
  }
  return tracer->span(category, std::move(name));
}

inline void instant(Tracer* tracer, const char* category, std::string name,
                    std::vector<TraceArg> args = {}) {
  if (tracer == nullptr || !tracer->enabled()) {
    return;
  }
  tracer->instant(category, std::move(name), std::move(args));
}

}  // namespace stellar::obs
