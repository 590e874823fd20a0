// FIFO multi-server service centers, one per lane.
//
// Models any resource that serves one request per "server" at a time with
// queueing: an OST's server NIC, disk positioning slots and media transfer
// (pfs::OstBank, one lane per OST), the MDS service threads (pfs::MdsModel,
// one lane), or the client NICs (pfs::ClientRuntime, one lane per node; 1
// server, service time = bytes/bandwidth).
//
// Every lane has the same server count, and the hot counters live in flat
// vectors indexed by dense lane id, so datacenter-scale clusters pay a few
// machine words per lane instead of a heap object per resource. Beyond a
// configurable efficient queue depth, additional *contention latency* per
// request can be layered on by the owner (see pfs::OstBank), which yields
// the saturation/diminishing-returns behaviour the paper's Tuning Agent
// observes when raising concurrency knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace stellar::sim {

class ServiceCenterBank {
 public:
  /// `lanes` independent centers with `servers` servers each (floored at 1).
  ServiceCenterBank(SimEngine& engine, std::size_t lanes, std::uint32_t servers);

  ServiceCenterBank(const ServiceCenterBank&) = delete;
  ServiceCenterBank& operator=(const ServiceCenterBank&) = delete;

  /// Enqueues a request on `lane` that occupies one of its servers for
  /// `serviceTime` seconds (a negative time counts as 0). A free server
  /// starts it at once; otherwise it waits FIFO. At completion one event
  /// frees the server, starts the lane's next waiter, then runs `onDone`
  /// in place.
  void submit(std::size_t lane, SimTime serviceTime, Parked onDone);

  template <EventCallable F>
  void submit(std::size_t lane, SimTime serviceTime, F&& onDone) {
    submit(lane, serviceTime, engine_.park(std::forward<F>(onDone)));
  }

  [[nodiscard]] std::size_t laneCount() const noexcept { return busy_.size(); }

  /// Requests waiting on `lane` for a server (not those in service).
  [[nodiscard]] std::size_t queued(std::size_t lane) const { return waiting_[lane].size(); }

  /// Aggregate busy time across the lane's servers; busyTime/elapsed/servers
  /// gives utilization.
  [[nodiscard]] double busyTime(std::size_t lane) const { return busyTime_[lane]; }

  /// Largest backlog `lane` has seen (congestion indicator).
  [[nodiscard]] std::size_t peakQueue(std::size_t lane) const { return peakQueue_[lane]; }

 private:
  struct Request {
    SimTime serviceTime;
    Parked onDone;
  };

  /// Allocation-free FIFO: a vector with a consumed-prefix cursor. Empty
  /// queues hold no heap storage, so 3 stages x 5000 OSTs cost vectors of
  /// a few machine words each.
  struct Fifo {
    std::vector<Request> items;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const noexcept { return head == items.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return items.size() - head; }
    void push(Request request) {
      // Drop the consumed prefix instead of growing past it, so a lane
      // that stays backlogged (the MDS under a metadata storm) holds at
      // most twice its live queue, not every request it has served.
      if (items.size() == items.capacity() && 2 * head >= items.size() && head > 0) {
        items.erase(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(std::move(request));
    }
    Request pop() {
      Request request = std::move(items[head]);
      if (++head == items.size()) {
        items.clear();
        head = 0;
      }
      return request;
    }
  };

  void start(std::size_t lane, Request request);

  SimEngine& engine_;
  std::uint32_t servers_;
  std::vector<std::uint32_t> busy_;
  std::vector<double> busyTime_;
  std::vector<std::size_t> peakQueue_;
  std::vector<Fifo> waiting_;
};

}  // namespace stellar::sim
