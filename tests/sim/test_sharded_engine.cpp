// ShardedEngine: parallel drive of independent engines, capped runs, window
// cancellation across shards, and aggregate accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/sharded_engine.hpp"

namespace stellar::sim {
namespace {

// Schedules a deterministic self-extending chain on each shard; returns
// the expected per-shard event count.
std::uint64_t plantChains(ShardedEngine& engines, int links) {
  for (std::size_t s = 0; s < engines.shardCount(); ++s) {
    SimEngine& shard = engines.shard(s);
    auto* remaining = new int{links};  // owned by the final link
    struct Chain {
      static void schedule(SimEngine& engine, int* left, double delay) {
        engine.scheduleAfter(delay, [&engine, left, delay] {
          if (--*left > 0) {
            schedule(engine, left, delay);
          } else {
            delete left;
          }
        });
      }
    };
    Chain::schedule(shard, remaining, 0.5 * static_cast<double>(s + 1));
  }
  return static_cast<std::uint64_t>(links);
}

TEST(ShardedEngine, FreeRunDrainsEveryShard) {
  ShardedEngine engines{EngineOptions{.shards = 4}};
  ASSERT_EQ(engines.shardCount(), 4u);
  const std::uint64_t perShard = plantChains(engines, 50);
  const SimTime end = engines.run();
  EXPECT_TRUE(engines.empty());
  EXPECT_EQ(engines.eventsProcessed(), perShard * 4);
  // Shard s ticks every 0.5*(s+1): the slowest shard defines the end.
  EXPECT_DOUBLE_EQ(end, 0.5 * 4.0 * 50.0);
  EXPECT_DOUBLE_EQ(engines.now(), end);
}

TEST(ShardedEngine, RunUntilRespectsLimit) {
  ShardedEngine engines{EngineOptions{.shards = 2}};
  plantChains(engines, 1000);
  engines.runUntil(10.0);
  EXPECT_FALSE(engines.empty());
  EXPECT_DOUBLE_EQ(engines.now(), 10.0);
  const std::uint64_t atLimit = engines.eventsProcessed();
  engines.run();
  EXPECT_GT(engines.eventsProcessed(), atLimit);
}

TEST(ShardedEngine, CancelOpenWindowsSweepsAllShards) {
  ShardedEngine engines{EngineOptions{.shards = 2}};
  std::atomic<int> closed{0};
  for (std::size_t s = 0; s < engines.shardCount(); ++s) {
    engines.shard(s).scheduleWindow(1.0, 100.0, [] {}, [&closed] { ++closed; });
  }
  engines.runUntil(5.0);
  EXPECT_EQ(engines.openWindows(), 2u);
  engines.cancelOpenWindows();
  EXPECT_EQ(engines.openWindows(), 0u);
  EXPECT_EQ(closed.load(), 2);
}

}  // namespace
}  // namespace stellar::sim
