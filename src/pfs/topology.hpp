// Cluster hardware model.
//
// Mirrors the paper's CloudLab testbed (§5.1.1): ten machines with Intel
// Xeon Silver 4114 (10 cores) and ~196 GB RAM on a 10 Gbps switch; five
// configured as object storage servers (one OST each), one combined
// MGS/MDS, and five as client nodes running 10 MPI ranks each (50 total).
#pragma once

#include <cstdint>
#include <string>

#include "util/units.hpp"

namespace stellar::pfs {

// The OST disk is modeled in two stages:
//  * a *positioning* stage with `queueDepth` parallel slots carrying the
//    per-RPC setup cost and the seek penalty for non-contiguous accesses
//    (command queueing lets the target overlap positioning work), and
//  * a *transfer* stage with a single server whose service time is
//    bytes/sequentialBandwidth + transferOverhead — the media bandwidth is
//    a shared physical resource, so aggregate throughput caps there.
// This split is what makes concurrency knobs help seek-bound small I/O
// while RPC-size knobs help bandwidth-bound large I/O.
struct DiskSpec {
  /// Sustained media bandwidth, bytes/s (shared across all requests).
  double sequentialBandwidth = 750.0 * 1e6;
  /// Positioning-stage latency when an RPC is not contiguous with the
  /// previous access on the same object.
  double seekPenalty = 2.0e-3;
  /// Fixed per-RPC positioning/setup cost.
  double positioningOverhead = 0.20e-3;
  /// Per-RPC cost serialized with the transfer (request processing,
  /// journal commit); this is what makes small RPCs inefficient.
  double transferOverhead = 0.10e-3;
  /// Parallel positioning slots (command queue depth).
  std::uint32_t queueDepth = 16;
  /// Latency growth per queued positioning request (capped backlog).
  double congestionPenalty = 0.02e-3;
};

struct MdsSpec {
  std::uint32_t serviceThreads = 64;
  double createCost = 85e-6;
  double openCost = 45e-6;
  double statCost = 35e-6;
  double unlinkCost = 95e-6;
  double mkdirCost = 110e-6;
  double lockCost = 25e-6;
  /// Congestion penalty per queued request (bounded backlog contribution,
  /// so deep pipelines saturate throughput instead of collapsing it).
  double congestionPenalty = 2e-6;
};

struct NetworkSpec {
  /// Per-node NIC bandwidth (10 Gbps switch => ~1.21 GiB/s usable).
  double nicBandwidth = 1.21e9;
  /// One-way wire+stack latency per message.
  double messageLatency = 110e-6;
  /// Client-side wait before a lost RPC delivery is declared timed out
  /// and retried (only reachable when a fault plan is active).
  double rpcTimeout = 0.35;
  /// Retry attempts after the first delivery before the client gives up
  /// and the run fails. Backoff doubles per attempt, capped at
  /// 8 * rpcTimeout, so the full budget is bounded (~20 s here).
  std::uint32_t rpcMaxRetries = 8;
};

struct ClusterSpec {
  std::string name = "cloudlab-c10";
  std::uint32_t clientNodes = 5;
  std::uint32_t ranksPerNode = 10;
  std::uint32_t ossNodes = 5;
  std::uint32_t ostsPerOss = 1;
  /// Shared-nothing federation cells (FalconFS-style): the cluster splits
  /// into `cells` identical sub-filesystems, each with its own MDS, its
  /// own slice of the OST pool, and its own client-node group. Ranks on a
  /// cell's nodes only touch that cell's files, and barriers are
  /// cell-scoped. clientNodes and ossNodes must divide evenly by cells;
  /// cells == 1 is the classic single-filesystem testbed. A cell is the
  /// unit PfsSimulator::run hands to a worker thread: one engine, one task.
  std::uint32_t cells = 1;
  std::uint64_t clientRamBytes = 196ULL * util::kGiB;
  DiskSpec disk;
  MdsSpec mds;
  NetworkSpec network;

  /// Per-request client-side syscall/page-cache CPU cost.
  double clientSyscallCost = 4e-6;
  /// Extra CPU cost per byte when checksums are enabled.
  double checksumCostPerByte = 0.35e-9;
  /// Cost of an extent-lock conflict (revoke round trip) on shared files.
  double extentLockConflictCost = 0.45e-3;

  [[nodiscard]] std::uint32_t totalRanks() const noexcept {
    return clientNodes * ranksPerNode;
  }
  [[nodiscard]] std::uint32_t totalOsts() const noexcept {
    return ossNodes * ostsPerOss;
  }
  [[nodiscard]] std::uint32_t nodesPerCell() const noexcept {
    return clientNodes / (cells == 0 ? 1 : cells);
  }
  [[nodiscard]] std::uint32_t ostsPerCell() const noexcept {
    return totalOsts() / (cells == 0 ? 1 : cells);
  }
  [[nodiscard]] std::uint32_t ranksPerCell() const noexcept {
    return nodesPerCell() * ranksPerNode;
  }
  [[nodiscard]] std::int64_t clientRamMb() const noexcept {
    return static_cast<std::int64_t>(clientRamBytes / util::kMiB);
  }
};

/// The default evaluation platform used throughout tests and benches.
[[nodiscard]] ClusterSpec defaultCluster();

/// `cellCount` federated copies of the paper's testbed: 5 client nodes,
/// 5 OSS, 10 ranks per node *per cell*. scaledCluster(1) is the default
/// cluster; scaledCluster(1000) is the 5000-OST / 50000-rank scale point
/// used by bench/micro_engine.
[[nodiscard]] ClusterSpec scaledCluster(std::uint32_t cellCount);

}  // namespace stellar::pfs
