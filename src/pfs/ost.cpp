#include "pfs/ost.hpp"

#include <algorithm>
#include <utility>

#include "faults/fault_injector.hpp"

namespace stellar::pfs {

OstBank::OstBank(sim::SimEngine& engine, const ClusterSpec& cluster,
                 std::uint32_t count, std::uint32_t globalOffset,
                 std::uint64_t runSeed)
    : engine_(engine), cluster_(cluster), globalOffset_(globalOffset),
      nic_(engine, count, 1), positioning_(engine, count, cluster.disk.queueDepth),
      transfer_(engine, count, 1) {
  rpcsServed_.assign(count, 0);
  bytesServed_.assign(count, 0);
  bytesWritten_.assign(count, 0);
  seeks_.assign(count, 0);
  lastEnd_.resize(count);
  rng_.reserve(count);
  const std::uint64_t bankSeed = util::mix64(runSeed, 0x057EA17ULL);
  for (std::uint32_t i = 0; i < count; ++i) {
    rng_.emplace_back(util::mix64(bankSeed, globalOffset + i));
  }
}

void OstBank::submitBulk(std::uint32_t ost, FileId objectKey,
                         std::uint64_t objectOffset, std::uint64_t bytes,
                         bool isWrite, sim::Parked onDone) {
  ++rpcsServed_[ost];
  bytesServed_[ost] += bytes;
  if (isWrite) {
    bytesWritten_[ost] += bytes;
  }

  // Wire time across the server NIC (shared by every client talking to
  // this OSS), then positioning, then the serialized media transfer.
  const double wireTime = static_cast<double>(bytes) / cluster_.network.nicBandwidth;
  nic_.submit(ost, wireTime,
              [this, ost, objectKey, objectOffset, bytes, isWrite,
               onDone = std::move(onDone)]() mutable {
    const DiskSpec& disk = cluster_.disk;

    // Seek detection per object: contiguous with the previous access?
    std::vector<std::uint64_t>& lastEnd = lastEnd_[ost];
    if (objectKey >= lastEnd.size()) {
      lastEnd.resize(static_cast<std::size_t>(objectKey) + 1, kNeverAccessed);
    }
    std::uint64_t& objectEnd = lastEnd[objectKey];
    const bool contiguous = objectEnd == objectOffset;
    objectEnd = objectOffset + bytes;
    if (!contiguous) {
      ++seeks_[ost];
    }

    double positioning = disk.positioningOverhead + (contiguous ? 0.0 : disk.seekPenalty);
    // Congestion: a deep backlog adds latency (bounded, so throughput
    // saturates rather than collapsing).
    positioning += disk.congestionPenalty *
                   static_cast<double>(
                       std::min<std::size_t>(positioning_.queued(ost), 64));
    positioning *= rng_[ost].uniform(0.9, 1.1);

    double transferTime = static_cast<double>(bytes) / disk.sequentialBandwidth +
                          disk.transferOverhead;
    // Writes commit through the journal with a small extra cost.
    if (isWrite) {
      transferTime += 0.02e-3;
    }
    transferTime *= rng_[ost].uniform(0.95, 1.05);

    // Degradation windows (src/faults) scale both disk stages: a target at
    // 30% capacity serves every request 1/0.3x slower.
    if (faults_ != nullptr) {
      const double slowdown = faults_->ostSlowdown(globalOffset_ + ost);
      positioning *= slowdown;
      transferTime *= slowdown;
    }

    positioning_.submit(ost, positioning,
                        [this, ost, transferTime, onDone = std::move(onDone)]() mutable {
      transfer_.submit(ost, transferTime, std::move(onDone));
    });
  });
}

}  // namespace stellar::pfs
