#include "sim/service_center.hpp"

#include <algorithm>
#include <utility>

namespace stellar::sim {

ServiceCenterBank::ServiceCenterBank(SimEngine& engine, std::size_t lanes,
                                     std::uint32_t servers)
    : engine_(engine), servers_(std::max<std::uint32_t>(1, servers)),
      busy_(lanes, 0), busyTime_(lanes, 0.0), peakQueue_(lanes, 0), waiting_(lanes) {}

void ServiceCenterBank::submit(std::size_t lane, SimTime serviceTime, Parked onDone) {
  if (serviceTime < 0.0) {
    serviceTime = 0.0;
  }
  if (busy_[lane] < servers_) {
    start(lane, Request{serviceTime, std::move(onDone)});
  } else {
    waiting_[lane].push(Request{serviceTime, std::move(onDone)});
    peakQueue_[lane] = std::max(peakQueue_[lane], waiting_[lane].size());
  }
}

void ServiceCenterBank::start(std::size_t lane, Request request) {
  ++busy_[lane];
  busyTime_[lane] += request.serviceTime;
  // The completion captures the parked handle, not the continuation;
  // `this` outlives the engine run in all usage (each bank's owner lives
  // as long as the run that drives it).
  engine_.scheduleAfter(request.serviceTime,
                        [this, lane, onDone = std::move(request.onDone)]() mutable {
                          --busy_[lane];
                          if (!waiting_[lane].empty()) {
                            start(lane, waiting_[lane].pop());
                          }
                          engine_.run(std::move(onDone));
                        });
}

}  // namespace stellar::sim
