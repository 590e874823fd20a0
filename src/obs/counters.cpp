#include "obs/counters.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace stellar::obs {
namespace {

Labels sortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Identity string: name + sorted labels, with separators that cannot
/// appear in reasonable metric names.
std::string identity(std::string_view name, const Labels& sorted) {
  std::string id{name};
  for (const auto& [k, v] : sorted) {
    id += '\x1f';
    id += k;
    id += '\x1e';
    id += v;
  }
  return id;
}

const char* kindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::Counter: return "counter";
    case MetricSample::Kind::Gauge: return "gauge";
    case MetricSample::Kind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  data_.bounds = std::move(bounds);
  data_.buckets.assign(data_.bounds.size() + 1, 0);
}

void Histogram::observe(double value) {
  const util::MutexLock lock{mutex_};
  const auto it = std::lower_bound(data_.bounds.begin(), data_.bounds.end(), value);
  ++data_.buckets[static_cast<std::size_t>(it - data_.bounds.begin())];
  if (data_.count == 0 || value < data_.minValue) {
    data_.minValue = value;
  }
  if (data_.count == 0 || value > data_.maxValue) {
    data_.maxValue = value;
  }
  ++data_.count;
  data_.sum += value;
}

HistogramData Histogram::data() const {
  const util::MutexLock lock{mutex_};
  return data_;
}

void Histogram::reset() {
  const util::MutexLock lock{mutex_};
  std::fill(data_.buckets.begin(), data_.buckets.end(), 0);
  data_.count = 0;
  data_.sum = 0.0;
  data_.minValue = 0.0;
  data_.maxValue = 0.0;
}

std::vector<double> Histogram::defaultBounds() {
  // Geometric x4 ladder spanning 1e-6 .. ~4e3: fits seconds-scale service
  // times and small counts alike without per-metric tuning.
  std::vector<double> bounds;
  for (double b = 1e-6; b < 5e3; b *= 4.0) {
    bounds.push_back(b);
  }
  return bounds;
}

CounterRegistry::Cell& CounterRegistry::findOrCreate(std::string_view name,
                                                     const Labels& labels,
                                                     MetricSample::Kind kind,
                                                     std::vector<double>* bounds) {
  const Labels sorted = sortedLabels(labels);
  const std::string id = identity(name, sorted);
  const util::MutexLock lock{mutex_};
  const auto it = std::find_if(index_.begin(), index_.end(),
                               [&](const auto& e) { return e.first == id; });
  if (it != index_.end()) {
    Cell& cell = *cells_[it->second];
    if (cell.kind != kind) {
      throw std::logic_error("metric '" + std::string{name} + "' re-registered as " +
                             kindName(kind) + " (was " + kindName(cell.kind) + ")");
    }
    return cell;
  }
  auto cell = std::make_unique<Cell>();
  cell->key = MetricKey{std::string{name}, sorted};
  cell->kind = kind;
  switch (kind) {
    case MetricSample::Kind::Counter:
      cell->counter = std::make_unique<Counter>();
      break;
    case MetricSample::Kind::Gauge:
      cell->gauge = std::make_unique<Gauge>();
      break;
    case MetricSample::Kind::Histogram:
      cell->histogram = std::make_unique<Histogram>(
          bounds != nullptr ? std::move(*bounds) : Histogram::defaultBounds());
      break;
  }
  cells_.push_back(std::move(cell));
  index_.emplace_back(id, cells_.size() - 1);
  return *cells_.back();
}

Counter& CounterRegistry::counter(std::string_view name, const Labels& labels) {
  return *findOrCreate(name, labels, MetricSample::Kind::Counter, nullptr).counter;
}

Gauge& CounterRegistry::gauge(std::string_view name, const Labels& labels) {
  return *findOrCreate(name, labels, MetricSample::Kind::Gauge, nullptr).gauge;
}

Histogram& CounterRegistry::histogram(std::string_view name, const Labels& labels,
                                      std::vector<double> bounds) {
  return *findOrCreate(name, labels, MetricSample::Kind::Histogram, &bounds).histogram;
}

std::vector<MetricSample> CounterRegistry::snapshot() const {
  std::vector<MetricSample> samples;
  const util::MutexLock lock{mutex_};
  samples.reserve(cells_.size());
  for (const auto& cell : cells_) {
    MetricSample sample;
    sample.key = cell->key;
    sample.kind = cell->kind;
    switch (cell->kind) {
      case MetricSample::Kind::Counter:
        sample.value = cell->counter->value();
        break;
      case MetricSample::Kind::Gauge:
        sample.value = cell->gauge->value();
        break;
      case MetricSample::Kind::Histogram:
        sample.histogram = cell->histogram->data();
        sample.value = sample.histogram.mean();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

void CounterRegistry::reset() {
  const util::MutexLock lock{mutex_};
  for (const auto& cell : cells_) {
    switch (cell->kind) {
      case MetricSample::Kind::Counter: cell->counter->reset(); break;
      case MetricSample::Kind::Gauge: cell->gauge->reset(); break;
      case MetricSample::Kind::Histogram: cell->histogram->reset(); break;
    }
  }
}

std::string CounterRegistry::renderTable() const {
  std::string out;
  for (const MetricSample& sample : snapshot()) {
    std::string name = sample.key.name;
    if (!sample.key.labels.empty()) {
      name += '{';
      for (std::size_t i = 0; i < sample.key.labels.size(); ++i) {
        if (i > 0) {
          name += ',';
        }
        name += sample.key.labels[i].first + '=' + sample.key.labels[i].second;
      }
      name += '}';
    }
    char line[192];
    if (sample.kind == MetricSample::Kind::Histogram) {
      std::snprintf(line, sizeof(line), "%-48s n=%llu mean=%.6g min=%.6g max=%.6g\n",
                    name.c_str(), static_cast<unsigned long long>(sample.histogram.count),
                    sample.histogram.mean(), sample.histogram.minValue,
                    sample.histogram.maxValue);
    } else {
      std::snprintf(line, sizeof(line), "%-48s %.6g\n", name.c_str(), sample.value);
    }
    out += line;
  }
  return out;
}

}  // namespace stellar::obs
