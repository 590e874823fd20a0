#include "sim/flow_limiter.hpp"

#include <algorithm>
#include <utility>

namespace stellar::sim {

FlowLimiterBank::FlowLimiterBank(SimEngine& engine, std::size_t lanes,
                                 std::uint32_t limit)
    : engine_(engine), limit_(std::max<std::uint32_t>(1, limit)),
      inFlight_(lanes, 0) {}

void FlowLimiterBank::acquire(std::size_t lane, Callback onAcquired) {
  if (inFlight_[lane] < limit_) {
    ++inFlight_[lane];
    onAcquired();
  } else {
    waiting_[lane].push_back(std::move(onAcquired));
  }
}

void FlowLimiterBank::release(std::size_t lane) {
  if (inFlight_[lane] > 0) {
    --inFlight_[lane];
  }
  admitWaiters(lane);
}

void FlowLimiterBank::setLimit(std::uint32_t limit) {
  limit_ = std::max<std::uint32_t>(1, limit);
  // waiting_ is ordered by lane id, so draining in iteration order is
  // deterministic. Snapshot the backlogged lanes first because
  // admitWaiters erases queues that drain completely.
  std::vector<std::size_t> lanes;
  lanes.reserve(waiting_.size());
  for (const auto& [lane, queue] : waiting_) {
    (void)queue;
    lanes.push_back(lane);
  }
  for (const std::size_t lane : lanes) {
    admitWaiters(lane);
  }
}

std::size_t FlowLimiterBank::waiters(std::size_t lane) const {
  const auto it = waiting_.find(lane);
  return it == waiting_.end() ? 0 : it->second.size();
}

void FlowLimiterBank::admitWaiters(std::size_t lane) {
  const auto it = waiting_.find(lane);
  if (it == waiting_.end()) {
    return;
  }
  std::deque<Callback>& queue = it->second;
  while (!queue.empty() && inFlight_[lane] < limit_) {
    ++inFlight_[lane];
    Callback next = std::move(queue.front());
    queue.pop_front();
    engine_.scheduleAfter(0.0, std::move(next));
  }
  if (queue.empty()) {
    waiting_.erase(it);
  }
}

}  // namespace stellar::sim
