#include "sim/flow_limiter.hpp"

#include <algorithm>
#include <utility>

namespace stellar::sim {

FlowLimiterBank::FlowLimiterBank(SimEngine& engine, std::size_t lanes,
                                 std::uint32_t limit)
    : engine_(engine), limit_(std::max<std::uint32_t>(1, limit)),
      inFlight_(lanes, 0) {}

void FlowLimiterBank::release(std::size_t lane) {
  if (inFlight_[lane] > 0) {
    --inFlight_[lane];
  }
  const auto it = waiting_.find(lane);
  if (it == waiting_.end()) {
    return;
  }
  std::deque<Parked>& queue = it->second;
  while (!queue.empty() && inFlight_[lane] < limit_) {
    ++inFlight_[lane];
    engine_.scheduleAfter(0.0, std::move(queue.front()));
    queue.pop_front();
  }
  if (queue.empty()) {
    waiting_.erase(it);
  }
}

std::size_t FlowLimiterBank::waiters(std::size_t lane) const {
  const auto it = waiting_.find(lane);
  return it == waiting_.end() ? 0 : it->second.size();
}

}  // namespace stellar::sim
