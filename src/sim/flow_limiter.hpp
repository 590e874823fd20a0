// Counting semaphores in simulated time.
//
// Models Lustre's in-flight RPC caps: osc.max_rpcs_in_flight bounds data
// RPCs per client-OST pair, mdc.max_rpcs_in_flight / max_mod_rpcs_in_flight
// bound metadata RPCs per client node. An acquirer under the cap runs at
// once; the others are parked in the engine's slot store and queue FIFO;
// release wakes the head of the queue in the same simulated instant, as a
// fresh event.
//
// FlowLimiterBank packs one semaphore per "lane" (every client-node x OST
// pair for the osc caps, every client node for the mdc caps) into
// struct-of-arrays counters with a sparse waiter map, so datacenter-scale
// clusters pay a few bytes per lane instead of a heap object per pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace stellar::sim {

/// A bank of FIFO semaphores sharing one limit (floored at 1), indexed by
/// dense lane id. Each lane behaves exactly like the single-semaphore
/// reference in tests/sim/test_flow_limiter.cpp, including the fresh-event
/// wakeup on release; only the storage differs.
class FlowLimiterBank {
 public:
  FlowLimiterBank(SimEngine& engine, std::size_t lanes, std::uint32_t limit);

  FlowLimiterBank(const FlowLimiterBank&) = delete;
  FlowLimiterBank& operator=(const FlowLimiterBank&) = delete;

  template <EventCallable F>
  void acquire(std::size_t lane, F&& onAcquired) {
    if (inFlight_[lane] < limit_) {
      ++inFlight_[lane];
      onAcquired();
    } else {
      waiting_[lane].push_back(engine_.park(std::forward<F>(onAcquired)));
    }
  }

  void release(std::size_t lane);

  [[nodiscard]] std::uint32_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::size_t laneCount() const noexcept { return inFlight_.size(); }
  [[nodiscard]] std::uint32_t inFlight(std::size_t lane) const { return inFlight_[lane]; }
  [[nodiscard]] std::size_t waiters(std::size_t lane) const;

 private:
  SimEngine& engine_;
  std::uint32_t limit_;
  std::vector<std::uint32_t> inFlight_;
  // Waiter queues exist only for backlogged lanes.
  std::map<std::size_t, std::deque<Parked>> waiting_;
};

}  // namespace stellar::sim
