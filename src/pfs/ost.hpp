// Object storage target bank.
//
// Models every OST owned by one engine shard as struct-of-arrays indexed
// by dense OST id: a server NIC in front of a disk with bounded efficient
// concurrency, per-object contiguity tracking (seek penalties), and
// congestion latency past the efficient queue depth. Each OST runs the
// same three FIFO stages the old per-object OstModel had —
// nic (1 server) -> positioning (queueDepth servers) -> transfer (1) —
// but hot counters live in flat vectors so datacenter-scale sweeps stay
// cache-resident instead of chasing one heap object per OST.
//
// Service jitter draws from a per-OST random stream keyed by the OST's
// *global* id and the run seed, never from the engine's stream: results
// are therefore invariant under how cells are grouped onto engine shards.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pfs/topology.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace stellar::faults {
class FaultInjector;
}

namespace stellar::pfs {

class OstBank {
 public:
  /// `count` OSTs with local ids [0, count); `globalOffset` maps local to
  /// global ids (fault targeting and jitter streams use global ids).
  OstBank(sim::SimEngine& engine, const ClusterSpec& cluster, std::uint32_t count,
          std::uint32_t globalOffset = 0, std::uint64_t runSeed = 0);

  OstBank(const OstBank&) = delete;
  OstBank& operator=(const OstBank&) = delete;

  /// Submits a bulk data RPC that has *arrived at the server*. `objectKey`
  /// identifies the backing object (file id works: one object per file per
  /// OST); `objectOffset` is object-local. Calls onDone when the server
  /// has completed the transfer + disk work.
  void submitBulk(std::uint32_t ost, std::uint64_t objectKey,
                  std::uint64_t objectOffset, std::uint64_t bytes, bool isWrite,
                  sim::Callback onDone);

  template <sim::EventCallable F>
  void submitBulk(std::uint32_t ost, std::uint64_t objectKey,
                  std::uint64_t objectOffset, std::uint64_t bytes, bool isWrite,
                  F&& onDone) {
    submitBulk(ost, objectKey, objectOffset, bytes, isWrite,
               sim::Callback{engine_.arena(), std::forward<F>(onDone)});
  }

  [[nodiscard]] std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(rpcsServed_.size());
  }
  [[nodiscard]] std::uint32_t globalIndex(std::uint32_t ost) const noexcept {
    return globalOffset_ + ost;
  }

  [[nodiscard]] std::uint64_t rpcsServed(std::uint32_t ost) const { return rpcsServed_[ost]; }
  [[nodiscard]] std::uint64_t bytesServed(std::uint32_t ost) const { return bytesServed_[ost]; }
  /// Read/write split of bytesServed(); the invariant checker's byte
  /// conservation laws compare these against the client-side RPC totals.
  [[nodiscard]] std::uint64_t bytesWritten(std::uint32_t ost) const { return bytesWritten_[ost]; }
  [[nodiscard]] std::uint64_t bytesRead(std::uint32_t ost) const {
    return bytesServed_[ost] - bytesWritten_[ost];
  }
  [[nodiscard]] std::uint64_t seeks(std::uint32_t ost) const { return seeks_[ost]; }
  [[nodiscard]] double diskBusyTime(std::uint32_t ost) const {
    return transfer_.busyTime[ost];
  }

  /// Simulated-time split of where an OST's disk spent its busy time:
  /// positioning (seek/setup) vs serialized media transfer (bandwidth).
  /// The difference is what distinguishes a seek-bound from a
  /// bandwidth-bound configuration in the observability layer.
  [[nodiscard]] double positioningBusyTime(std::uint32_t ost) const {
    return positioning_.busyTime[ost];
  }
  [[nodiscard]] double transferBusyTime(std::uint32_t ost) const {
    return transfer_.busyTime[ost];
  }
  /// Peak backlog seen by the seek/setup stage (congestion indicator).
  [[nodiscard]] std::size_t peakQueue(std::uint32_t ost) const {
    return positioning_.peakQueue[ost];
  }

  /// Attaches (nullable, non-owning) live fault state: degradation windows
  /// scale this bank's service times (queried by global OST id). Costs one
  /// null check per RPC when detached.
  void attachFaults(const faults::FaultInjector* faults) noexcept { faults_ = faults; }

 private:
  struct StageRequest {
    double serviceTime;
    sim::Callback onDone;
  };

  /// Allocation-free FIFO: a vector with a consumed-prefix cursor. Empty
  /// queues hold no heap storage, so 3 stages x 5000 OSTs cost vectors of
  /// a few machine words each.
  struct Fifo {
    std::vector<StageRequest> items;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const noexcept { return head == items.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return items.size() - head; }
    void push(StageRequest request) { items.push_back(std::move(request)); }
    StageRequest pop() {
      StageRequest request = std::move(items[head]);
      if (++head == items.size()) {
        items.clear();
        head = 0;
      }
      return request;
    }
  };

  /// One FIFO multi-server stage replicated across every OST,
  /// struct-of-arrays. Semantics per OST match sim::ServiceCenter.
  struct Stage {
    std::uint32_t servers = 1;
    std::vector<std::uint32_t> busy;
    std::vector<double> busyTime;
    std::vector<std::size_t> peakQueue;
    std::vector<Fifo> waiting;

    void init(std::uint32_t count, std::uint32_t serverCount);
  };

  void stageSubmit(Stage& stage, std::uint32_t ost, StageRequest request);
  void stageStart(Stage& stage, std::uint32_t ost, StageRequest request);

  sim::SimEngine& engine_;
  const ClusterSpec& cluster_;
  std::uint32_t globalOffset_;
  const faults::FaultInjector* faults_ = nullptr;

  Stage nic_;          ///< server-side link, FIFO store-and-forward
  Stage positioning_;  ///< queueDepth-way seek/setup stage
  Stage transfer_;     ///< serialized media bandwidth stage

  std::vector<std::uint64_t> rpcsServed_;
  std::vector<std::uint64_t> bytesServed_;
  std::vector<std::uint64_t> bytesWritten_;
  std::vector<std::uint64_t> seeks_;
  /// Last accessed end offset per object, for seek detection.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> lastEnd_;
  /// Per-OST jitter streams keyed by (runSeed, global id).
  std::vector<util::Rng> rng_;
};

}  // namespace stellar::pfs
