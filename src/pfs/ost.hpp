// Object storage target bank.
//
// Models every OST of one cell's engine as struct-of-arrays indexed
// by dense OST id: a server NIC in front of a disk with bounded efficient
// concurrency, per-object contiguity tracking (seek penalties), and
// congestion latency past the efficient queue depth. Each OST runs three
// FIFO stages — nic (1 server) -> positioning (queueDepth servers) ->
// transfer (1) — and each stage is one sim::ServiceCenterBank with a lane
// per OST, so hot counters live in flat vectors and datacenter-scale
// sweeps stay cache-resident instead of chasing one heap object per OST.
//
// Service jitter draws from a per-OST random stream keyed by the OST's
// *global* id and the run seed (the engine draws no random numbers), so
// every cell of a federated run draws streams of its own.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pfs/job.hpp"
#include "pfs/topology.hpp"
#include "sim/engine.hpp"
#include "sim/service_center.hpp"
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
  /// identifies the backing object: the client passes its file id (one
  /// object per file per OST). `objectOffset` is object-local. Runs onDone
  /// when the server has completed the transfer + disk work.
  void submitBulk(std::uint32_t ost, FileId objectKey,
                  std::uint64_t objectOffset, std::uint64_t bytes, bool isWrite,
                  sim::Parked onDone);

  template <sim::EventCallable F>
  void submitBulk(std::uint32_t ost, FileId objectKey,
                  std::uint64_t objectOffset, std::uint64_t bytes, bool isWrite,
                  F&& onDone) {
    submitBulk(ost, objectKey, objectOffset, bytes, isWrite,
               engine_.park(std::forward<F>(onDone)));
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

  /// Simulated-time split of where an OST's disk spent its busy time:
  /// positioning (seek/setup) vs serialized media transfer (bandwidth).
  /// The difference is what distinguishes a seek-bound from a
  /// bandwidth-bound configuration in the observability layer.
  [[nodiscard]] double positioningBusyTime(std::uint32_t ost) const {
    return positioning_.busyTime(ost);
  }
  [[nodiscard]] double transferBusyTime(std::uint32_t ost) const {
    return transfer_.busyTime(ost);
  }
  /// Peak backlog seen by the seek/setup stage (congestion indicator).
  [[nodiscard]] std::size_t peakQueue(std::uint32_t ost) const {
    return positioning_.peakQueue(ost);
  }

  /// Attaches (nullable, non-owning) live fault state: degradation windows
  /// scale this bank's service times (queried by global OST id). Costs one
  /// null check per RPC when detached.
  void attachFaults(const faults::FaultInjector* faults) noexcept { faults_ = faults; }

 private:
  sim::SimEngine& engine_;
  const ClusterSpec& cluster_;
  std::uint32_t globalOffset_;
  const faults::FaultInjector* faults_ = nullptr;

  sim::ServiceCenterBank nic_;          ///< server-side link, FIFO store-and-forward
  sim::ServiceCenterBank positioning_;  ///< queueDepth-way seek/setup stage
  sim::ServiceCenterBank transfer_;     ///< serialized media bandwidth stage

  std::vector<std::uint64_t> rpcsServed_;
  std::vector<std::uint64_t> bytesServed_;
  std::vector<std::uint64_t> bytesWritten_;
  std::vector<std::uint64_t> seeks_;
  /// Last accessed end offset per object, for seek detection: one flat
  /// table per OST indexed by object key (file ids are dense), grown on
  /// first access and filled with kNeverAccessed, an offset no access
  /// starts at, so an object's first access always seeks.
  static constexpr std::uint64_t kNeverAccessed = ~std::uint64_t{0};
  std::vector<std::vector<std::uint64_t>> lastEnd_;
  /// Per-OST jitter streams keyed by (runSeed, global id).
  std::vector<util::Rng> rng_;
};

}  // namespace stellar::pfs
