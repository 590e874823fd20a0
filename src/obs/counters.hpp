// Hierarchical metric registry: counters, gauges, and histograms with
// optional labels, addressed by dotted names ("pfs.rpc.data"). The
// registry is the cross-run aggregation point of the observability layer:
// every PfsSimulator::run flushes its RunCounters here, the tuning engine
// adds cache-hit statistics, and the CLI renders/export the snapshot.
//
// Concurrency: the experiment harness runs repeats on a thread pool, so
// find-or-create is mutex-guarded and the metric cells themselves are
// atomic. Returned references stay valid for the registry's lifetime
// (cells are heap-allocated and never moved).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace stellar::obs {

/// Label set attached to a metric instance, e.g. {{"ost", "3"}}.
/// Order-insensitive: labels are sorted by key when forming the identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing sum (counts or totals such as seconds/bytes).
class Counter {
 public:
  void add(double delta = 1.0) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-written instantaneous value (queue depth, rule-set size).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Retains the larger of the current and observed value.
  void setMax(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated histogram state (the snapshot carrier).
struct HistogramData {
  std::vector<double> bounds;           ///< upper bucket bounds, ascending
  std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 (last = +inf)
  std::uint64_t count = 0;
  double sum = 0.0;
  double minValue = 0.0;
  double maxValue = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram; observe() is mutex-guarded (histograms sit off
/// the per-event hot path — they are fed at flush points).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  [[nodiscard]] HistogramData data() const;
  void reset();

  /// Default bounds: powers of ~4 covering microseconds..hours when the
  /// unit is seconds, or 1..~10^9 for counts/bytes.
  [[nodiscard]] static std::vector<double> defaultBounds();

 private:
  mutable util::Mutex mutex_;
  HistogramData data_ STELLAR_GUARDED_BY(mutex_);
};

/// Identity of one metric instance inside the registry.
struct MetricKey {
  std::string name;
  Labels labels;  ///< sorted by key
};

/// A point-in-time copy of one metric, used for export and inspection.
struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  MetricKey key;
  Kind kind = Kind::Counter;
  double value = 0.0;       ///< counter/gauge value; histogram mean
  HistogramData histogram;  ///< populated for histograms only
};

class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Find-or-create; the reference stays valid for the registry lifetime.
  /// Re-registering a name with a different metric kind throws.
  [[nodiscard]] Counter& counter(std::string_view name, const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, const Labels& labels = {});
  [[nodiscard]] Histogram& histogram(std::string_view name, const Labels& labels = {},
                                     std::vector<double> bounds = Histogram::defaultBounds());

  /// Registration-ordered copy of every metric (deterministic export).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zeroes all values; registrations (names, labels, bounds) survive.
  void reset();

  /// Aligned human-readable listing for the CLI's --metrics flag.
  [[nodiscard]] std::string renderTable() const;

 private:
  struct Cell {
    MetricKey key;
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  [[nodiscard]] Cell& findOrCreate(std::string_view name, const Labels& labels,
                                   MetricSample::Kind kind, std::vector<double>* bounds);

  mutable util::Mutex mutex_;
  // registration order
  std::vector<std::unique_ptr<Cell>> cells_ STELLAR_GUARDED_BY(mutex_);
  // identity -> cell
  std::vector<std::pair<std::string, std::size_t>> index_ STELLAR_GUARDED_BY(mutex_);
};

}  // namespace stellar::obs
