#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <thread>

namespace stellar::sim {

ShardedEngine::ShardedEngine(EngineOptions options) : options_(options) {
  const std::uint32_t count = std::max<std::uint32_t>(options.shards, 1);
  shards_.reserve(count);
  EngineOptions shardOptions = options;
  shardOptions.shards = 1;
  for (std::uint32_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<SimEngine>(shardOptions));
  }
  if (count == 1) {
    return;  // one shard drains on the calling thread: no pool to size
  }
  // Worker threads are capped at the core count: shard count is a
  // partitioning choice (one shard per federation cell maximizes cache
  // locality — each queue drains to completion before the next), while
  // extra threads beyond the cores only add contention. parallelFor
  // load-balances the shards across whatever workers exist.
  const std::size_t workers = std::min<std::size_t>(
      count, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  if (workers > 1) {
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }
}

void ShardedEngine::forEachParallel(const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      fn(i);
    }
    return;
  }
  pool_->parallelFor(shards_.size(), fn);
}

SimTime ShardedEngine::run() { return drive(std::nullopt); }

SimTime ShardedEngine::runUntil(SimTime limit) { return drive(limit); }

SimTime ShardedEngine::drive(std::optional<SimTime> limit) {
  forEachParallel([&](std::size_t i) {
    if (limit.has_value()) {
      shards_[i]->runUntil(*limit);
    } else {
      shards_[i]->run();
    }
  });
  return now();
}

bool ShardedEngine::empty() const noexcept {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const std::unique_ptr<SimEngine>& s) { return s->empty(); });
}

SimTime ShardedEngine::now() const noexcept {
  SimTime latest = 0.0;
  for (const std::unique_ptr<SimEngine>& shard : shards_) {
    latest = std::max(latest, shard->now());
  }
  return latest;
}

std::uint64_t ShardedEngine::eventsProcessed() const noexcept {
  std::uint64_t total = 0;
  for (const std::unique_ptr<SimEngine>& shard : shards_) {
    total += shard->eventsProcessed();
  }
  return total;
}

std::uint64_t ShardedEngine::openWindows() const noexcept {
  std::uint64_t total = 0;
  for (const std::unique_ptr<SimEngine>& shard : shards_) {
    total += shard->openWindows();
  }
  return total;
}

void ShardedEngine::cancelOpenWindows() {
  for (const std::unique_ptr<SimEngine>& shard : shards_) {
    shard->cancelOpenWindows();
  }
}

void ShardedEngine::attachObservability(obs::Tracer* tracer,
                                        obs::CounterRegistry* counters) noexcept {
  for (const std::unique_ptr<SimEngine>& shard : shards_) {
    shard->attachObservability(tracer, counters);
  }
}

}  // namespace stellar::sim
