// Client-side runtime: executes every rank's I/O program against the
// simulated file system, honoring all 13 tunable parameters.
//
// Mechanisms (each maps to a manual-documented Lustre behaviour):
//  - striping via FileLayout (lov.stripe_count / stripe_size)
//  - write-back caching with per-(node,OST) dirty budgets (osc.max_dirty_mb)
//  - RPC formation: pending dirty segments are coalesced into bulk RPCs of
//    at most osc.max_pages_per_rpc pages
//  - per-(node,OST) in-flight caps (osc.max_rpcs_in_flight)
//  - sliding-window readahead (pfs/readahead.hpp): per-fd window state
//    machine with growth on sequential hits, shrink/reset on misses,
//    RPC-aligned prefetch edges, whole-file mode for small files, and a
//    per-node budget arbitrating across files (llite.max_read_ahead_*)
//  - metadata RPCs through per-node caps (mdc.max_rpcs_in_flight /
//    max_mod_rpcs_in_flight) to the MDS model
//  - stat-ahead pipelining of directory stat scans (llite.statahead_max)
//  - DLM lock caching (ldlm.lru_size / lru_max_age): a cached inode lock
//    makes re-stat/re-open local and keeps written pages usable as page
//    cache for private files
//  - extent-lock conflicts on shared-file writes (fixed model, see
//    DESIGN.md)
//
// Hot per-(node,OST) state — dirty budgets, RPC caps, pending segment
// queues — lives in struct-of-arrays banks indexed by the dense lane id
// node * totalOsts + ost, so a datacenter-scale runtime costs flat vectors
// instead of a heap object per pair. All randomness draws from streams
// keyed by (run seed, global component id), never from the engine: each
// federated cell draws streams of its own, whichever thread runs it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "pfs/client_cache.hpp"
#include "pfs/job.hpp"
#include "pfs/layout.hpp"
#include "pfs/mds.hpp"
#include "pfs/ost.hpp"
#include "pfs/params.hpp"
#include "pfs/readahead.hpp"
#include "pfs/topology.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/flow_limiter.hpp"
#include "sim/service_center.hpp"
#include "util/rng.hpp"

namespace stellar::faults {
class FaultInjector;
}

namespace stellar::pfs {

/// Per-file counters accumulated during a run (Darshan's source data).
struct FileStats {
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint32_t readOps = 0;
  std::uint32_t writeOps = 0;
  std::uint32_t seqReads = 0;
  std::uint32_t seqWrites = 0;
  std::uint32_t opens = 0;
  std::uint32_t creates = 0;
  std::uint32_t stats = 0;
  std::uint32_t unlinks = 0;
  std::uint32_t fsyncs = 0;
  std::uint32_t closes = 0;
  std::uint64_t minAccess = ~std::uint64_t{0};
  std::uint64_t maxAccess = 0;
  std::uint64_t maxOffset = 0;   ///< high-water mark => file size
  std::uint64_t rankMask = 0;    ///< bitmask of ranks that touched the file

  /// Top-4 distinct access sizes with counts (Darshan's ACCESS1..4);
  /// fixed-size to stay allocation-free across hundreds of thousands of
  /// files. Saturating: a 5th distinct size replaces the rarest slot.
  std::array<std::uint64_t, 4> accessSize{};
  std::array<std::uint32_t, 4> accessCount{};

  void recordAccess(std::uint64_t size) noexcept {
    std::size_t weakest = 0;
    for (std::size_t i = 0; i < accessSize.size(); ++i) {
      if (accessSize[i] == size) {
        ++accessCount[i];
        return;
      }
      if (accessCount[i] == 0) {
        accessSize[i] = size;
        accessCount[i] = 1;
        return;
      }
      if (accessCount[i] < accessCount[weakest]) {
        weakest = i;
      }
    }
    accessSize[weakest] = size;
    accessCount[weakest] = 1;
  }

  /// Most frequent access size (0 if no I/O).
  [[nodiscard]] std::uint64_t commonAccessSize() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < accessSize.size(); ++i) {
      if (accessCount[i] > accessCount[best]) {
        best = i;
      }
    }
    return accessCount[best] == 0 ? 0 : accessSize[best];
  }
  double readTime = 0.0;         ///< rank-blocked time attributed to reads
  double writeTime = 0.0;
  double metaTime = 0.0;

  bool operator==(const FileStats&) const = default;
};

/// Per-rank counters.
struct RankStats {
  double finishTime = 0.0;
  double readTime = 0.0;
  double writeTime = 0.0;
  double metaTime = 0.0;
  double computeTime = 0.0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;

  bool operator==(const RankStats&) const = default;
};

/// Whole-run counters beyond per-file/per-rank stats.
struct RunCounters {
  std::uint64_t dataRpcs = 0;
  std::uint64_t metaRpcs = 0;
  std::uint64_t lockHits = 0;
  std::uint64_t lockMisses = 0;
  std::uint64_t readaheadHitBytes = 0;
  std::uint64_t readaheadMissBytes = 0;
  std::uint64_t pageCacheHitBytes = 0;
  std::uint64_t stataheadServed = 0;
  std::uint64_t extentConflicts = 0;
  /// DLM lock acquisition waits: how many blocked a rank, and their total
  /// simulated seconds.
  std::uint64_t lockWaits = 0;
  double lockWaitSeconds = 0.0;
  std::uint64_t events = 0;
  /// RPC resilience counters; nonzero only when a fault plan is active.
  std::uint64_t rpcTimeouts = 0;
  std::uint64_t rpcRetries = 0;
  std::uint64_t rpcGaveUp = 0;
  /// Byte-conservation bookkeeping (consumed by src/testkit's invariant
  /// checker): payload bytes carried by issued bulk RPCs, and dirty bytes
  /// discarded without a flush because their file was unlinked first.
  std::uint64_t writeRpcBytes = 0;
  std::uint64_t readRpcBytes = 0;
  std::uint64_t dirtyDiscardedBytes = 0;

  RunCounters& operator+=(const RunCounters& other) noexcept {
    dataRpcs += other.dataRpcs;
    metaRpcs += other.metaRpcs;
    lockHits += other.lockHits;
    lockMisses += other.lockMisses;
    readaheadHitBytes += other.readaheadHitBytes;
    readaheadMissBytes += other.readaheadMissBytes;
    pageCacheHitBytes += other.pageCacheHitBytes;
    stataheadServed += other.stataheadServed;
    extentConflicts += other.extentConflicts;
    lockWaits += other.lockWaits;
    lockWaitSeconds += other.lockWaitSeconds;
    events += other.events;
    rpcTimeouts += other.rpcTimeouts;
    rpcRetries += other.rpcRetries;
    rpcGaveUp += other.rpcGaveUp;
    writeRpcBytes += other.writeRpcBytes;
    readRpcBytes += other.readRpcBytes;
    dirtyDiscardedBytes += other.dirtyDiscardedBytes;
    return *this;
  }
  bool operator==(const RunCounters&) const = default;
};

/// Per-OST slice of a run's server-side accounting.
struct OstAudit {
  std::uint64_t rpcsServed = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t seeks = 0;
  double positioningBusySeconds = 0.0;
  double transferBusySeconds = 0.0;
  std::size_t peakQueue = 0;

  bool operator==(const OstAudit&) const = default;
};

/// End-of-run snapshot of internal state the invariant checker needs but
/// the tuning loop does not: server byte splits, cache high-water marks,
/// and lock lifecycle balances. Cheap to collect (a few scalars per OST /
/// node), so PfsSimulator gathers it unconditionally.
struct RunAudit {
  std::vector<OstAudit> osts;
  /// Max over all (node, OST) dirty lanes.
  std::uint64_t peakDirtyBytes = 0;
  std::uint64_t maxDirtyReservationBytes = 0;
  /// Per-(node,OST) budget implied by osc_max_dirty_mb at run time.
  std::uint64_t dirtyBudgetBytes = 0;
  /// Summed over all nodes' DLM lock LRUs; inserts == evictions + resident.
  std::uint64_t lockInserts = 0;
  std::uint64_t lockEvictions = 0;
  std::uint64_t lockResident = 0;
  std::uint64_t mdsOps = 0;
  double mdsBusySeconds = 0.0;
  /// Readahead window machine activity plus the fate of every prefetched
  /// byte. INV-READA pins the exact conservation law
  /// prefetched == consumed + discarded + resident on every run.
  std::uint64_t readaWindowsOpened = 0;
  std::uint64_t readaWindowsGrown = 0;
  std::uint64_t readaWindowsReset = 0;
  std::uint64_t readaPrefetchedBytes = 0;
  std::uint64_t readaConsumedBytes = 0;
  std::uint64_t readaDiscardedBytes = 0;
  std::uint64_t readaResidentBytes = 0;
  /// Statahead entries still held when the snapshot was taken. Each entry
  /// is dropped when its stat op runs, so a drained run holds none
  /// (INV-STATAHEAD).
  std::uint64_t stataheadPending = 0;

  /// Folds one cell's audit into this whole-run audit: the cell's OSTs
  /// land at `ostOffset`, high-water marks and the dirty budget (one
  /// config, so equal in every cell) take the max, totals add. The one
  /// place a new field learns how cells combine.
  void foldCell(const RunAudit& cell, std::size_t ostOffset) {
    if (osts.size() < ostOffset + cell.osts.size()) {
      osts.resize(ostOffset + cell.osts.size());
    }
    std::copy(cell.osts.begin(), cell.osts.end(),
              osts.begin() + static_cast<std::ptrdiff_t>(ostOffset));
    peakDirtyBytes = std::max(peakDirtyBytes, cell.peakDirtyBytes);
    maxDirtyReservationBytes =
        std::max(maxDirtyReservationBytes, cell.maxDirtyReservationBytes);
    dirtyBudgetBytes = std::max(dirtyBudgetBytes, cell.dirtyBudgetBytes);
    lockInserts += cell.lockInserts;
    lockEvictions += cell.lockEvictions;
    lockResident += cell.lockResident;
    mdsOps += cell.mdsOps;
    mdsBusySeconds += cell.mdsBusySeconds;
    readaWindowsOpened += cell.readaWindowsOpened;
    readaWindowsGrown += cell.readaWindowsGrown;
    readaWindowsReset += cell.readaWindowsReset;
    readaPrefetchedBytes += cell.readaPrefetchedBytes;
    readaConsumedBytes += cell.readaConsumedBytes;
    readaDiscardedBytes += cell.readaDiscardedBytes;
    readaResidentBytes += cell.readaResidentBytes;
    stataheadPending += cell.stataheadPending;
  }
  bool operator==(const RunAudit&) const = default;
};

/// Placement of one runtime inside a (possibly federated) run: the run's
/// seed plus this runtime's global node/OST id offsets. Random streams and
/// fault targeting key off global ids, so each cell draws streams of its own
/// and simulates identically whichever thread runs it.
struct RunScope {
  std::uint64_t runSeed = 0;
  std::uint32_t nodeOffset = 0;
  std::uint32_t ostOffset = 0;
};

class ClientRuntime {
 public:
  /// `tracer` (nullable, non-owning) receives per-RPC and lock-wait
  /// events while enabled; aggregate metrics are read back through
  /// counters() and audit() at end of run. `faults` (nullable, non-owning)
  /// is the armed fault injector for this run: when attached, every RPC
  /// delivery consults it for loss/stall state and lost deliveries retry
  /// with exponential backoff under the NetworkSpec retry budget.
  ClientRuntime(sim::SimEngine& engine, const ClusterSpec& cluster,
                const PfsConfig& config, const JobSpec& job,
                obs::Tracer* tracer = nullptr,
                const faults::FaultInjector* faults = nullptr,
                RunScope scope = {});
  ~ClientRuntime();

  ClientRuntime(const ClientRuntime&) = delete;
  ClientRuntime& operator=(const ClientRuntime&) = delete;

  /// Schedules every rank's program at t=0. Call engine.run() afterwards.
  void start();

  [[nodiscard]] bool allRanksDone() const noexcept { return doneRanks_ == ranks_.size(); }

  /// True once any RPC exhausted its retry budget. The run still drains
  /// (give-up completes the RPC so resources release and ranks finish),
  /// but its results must be treated as unusable.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& failureReason() const noexcept {
    return failureReason_;
  }
  [[nodiscard]] const std::vector<FileStats>& fileStats() const noexcept { return fileStats_; }
  [[nodiscard]] const std::vector<RankStats>& rankStats() const noexcept { return rankStats_; }
  [[nodiscard]] const RunCounters& counters() const noexcept { return counters_; }

  /// Simulated time at which each global barrier released, in order.
  /// Multi-phase workloads (IO500, MDWorkbench rounds) separate their
  /// phases with barriers, so consecutive differences are phase durations.
  [[nodiscard]] const std::vector<double>& barrierTimes() const noexcept {
    return barrierTimes_;
  }

  /// Collects the end-of-run audit snapshot (see RunAudit). Call after the
  /// event queue drains; earlier snapshots see in-flight state.
  [[nodiscard]] RunAudit audit() const;

 private:
  // ---- internal state ----------------------------------------------------
  struct FdState {
    bool everRead = false;
    std::uint64_t lastReadEnd = 0;
    std::uint64_t lastWriteEnd = 0;
    ReadaWindow ra;  ///< sliding readahead window (pfs/readahead.hpp)
  };

  struct StataheadScan {
    std::size_t nextToIssue = 0;
    std::size_t endIndex = 0;  ///< exclusive op index
    std::uint32_t inFlight = 0;
  };

  struct RankState {
    RankId id = 0;
    std::uint32_t node = 0;
    std::size_t ip = 0;            ///< instruction pointer into program
    std::size_t segIndex = 0;      ///< progress within current op's extents
    std::vector<ObjectExtent> segments;
    bool segmentsValid = false;
    /// Set when a dirty-space waiter admitted the current segment's
    /// reservation; execWrite must consume it without re-reserving.
    bool reservedSegment = false;
    double accrued = 0.0;          ///< local CPU time not yet spent
    std::uint32_t pendingWaits = 0;///< outstanding completions blocking us
    double blockStart = 0.0;
    OpKind blockKind = OpKind::Barrier;
    bool done = false;
    std::unordered_map<FileId, FdState> fds;
    // statahead: op index -> ready?  (absent = not issued)
    std::unordered_map<std::size_t, bool> statEntries;
    std::optional<StataheadScan> scan;
    std::optional<std::size_t> waitingOnStat;
  };

  /// Per-node state that is genuinely per node (not per node x OST) and
  /// not a queueing primitive: lock LRU, readahead store, and file
  /// bookkeeping. The NIC and metadata caps are node-indexed banks.
  ///
  /// Per-file tables on the metadata path are flat vectors indexed by the
  /// dense FileId, sized to the job's file count at construction (the lock
  /// LRU's slot vector grows to the largest id it caches): 4 + 1 bytes per
  /// file here plus at most 24 in the LRU.
  struct NodeState {
    LockLru locks;
    ReadAheadCache readahead;
    /// Ordered maps, not unordered: fsync completion drains waiters per
    /// file, and any future whole-map drain (close-all, unlink sweeps)
    /// must visit files in FileId order for bit-identical replay
    /// (stellar-lint DET-UNORDERED-ITER; pinned by the ML-DET law).
    std::map<FileId, std::uint32_t> flushInFlight;
    std::map<FileId, std::vector<sim::Callback>> fsyncWaiters;
    /// Open FDs on this node, per file.
    std::vector<std::uint32_t> openCount;
    /// Nonzero while the file's written pages are still cached on this
    /// node. Set on write; cleared when the protecting DLM lock leaves the
    /// LRU (via the eviction handler) or on unlink.
    std::vector<std::uint8_t> pageValid;
  };

  struct FileState {
    FileLayout layout;
    bool exists = false;
    std::uint64_t size = 0;
    std::uint64_t writerNodeMask = 0;
  };

  /// Dense lane id for per-(node,OST) banks.
  [[nodiscard]] std::size_t lane(std::uint32_t node, std::uint32_t ost) const noexcept {
    return static_cast<std::size_t>(node) * totalOsts_ + ost;
  }

  // ---- execution ---------------------------------------------------------
  void advance(RankState& rank);
  void blockRank(RankState& rank, OpKind kind);
  void resumeRank(RankState& rank);
  void completeOneWait(RankState& rank);
  void rankFinished(RankState& rank);

  /// True if the op was fully handled locally (advance continues the
  /// loop); false if the rank blocked.
  bool execMeta(RankState& rank, const IoOp& op);
  bool execWrite(RankState& rank, const IoOp& op);
  bool execRead(RankState& rank, const IoOp& op);
  bool execStat(RankState& rank, const IoOp& op);
  void execCloseLocal(RankState& rank, const IoOp& op);

  // statahead helpers
  void maybeStartScan(RankState& rank);
  void pumpStatahead(RankState& rank);

  // metadata plumbing
  void submitMeta(std::uint32_t node, MetaOpKind kind, std::uint32_t stripeCount,
                  bool modifying, sim::Parked onDone);

  // ---- fault-aware RPC delivery ------------------------------------------
  /// One retryable RPC, described by value so a retry or a stall window
  /// can relaunch it: an MDS op (ost < 0) or a bulk transfer to an OST.
  /// `complete`, parked in the engine, releases client-side resources and
  /// resumes waiters; as a handle it keeps `[this, d]` captures inline.
  struct RpcDelivery {
    std::int32_t ost = -1;  ///< target *global* OST id, or -1 for the MDS
    std::uint32_t node = 0;  ///< issuing client node
    MetaOpKind metaKind = MetaOpKind::Stat;
    std::uint32_t stripeCount = 0;  ///< MDS op: layout width to allocate
    std::uint32_t localOst = 0;     ///< bulk: runtime-local OST index
    bool isWrite = false;
    FileId file = 0;
    std::uint64_t objectOffset = 0;
    std::uint64_t bytes = 0;
    std::uint32_t attempt = 0;
    sim::Parked complete;
  };
  /// Iterative retry loop: lost attempts (outage window or sampled drop)
  /// wait rpcTimeout plus exponential backoff and redeliver; after
  /// rpcMaxRetries the run fails but `complete` still runs so the
  /// simulation drains instead of deadlocking. With no injector attached
  /// it is launchRpc(d, complete), the event sequence of the pre-fault
  /// code.
  void deliverRpc(RpcDelivery d);
  /// One delivery attempt of `d`: request trip, MDS or OST service, reply
  /// trip (bulk data also crosses the client NIC); `served` runs when the
  /// reply arrives.
  void launchRpc(const RpcDelivery& d, sim::Parked served);
  void failRun(std::string reason);

  // data plumbing
  [[nodiscard]] std::uint64_t rpcBytes() const noexcept;
  void flushPending(std::uint32_t node, std::uint32_t ost, FileId onlyFile = kInvalidFile);
  void flushAllNodes();
  void issueWriteRpc(std::uint32_t node, std::uint32_t ost, FileId file,
                     std::uint64_t objectOffset, std::uint64_t bytes);
  void issueReadRpc(std::uint32_t node, std::uint32_t ost, FileId file,
                    std::uint64_t objectOffset, std::uint64_t bytes,
                    sim::Parked onDone);

  // readahead
  void prefetchRange(RankState& rank, FileId file, std::uint64_t begin, std::uint64_t end);

  // lock / page-cache
  [[nodiscard]] bool lockCached(std::uint32_t node, FileId file);
  void cacheLock(std::uint32_t node, FileId file);
  /// Accounts one DLM lock acquisition wait (simulated seconds).
  void noteLockWait(double seconds);

  [[nodiscard]] FileLayout makeLayout(FileId file) const;

  sim::SimEngine& engine_;
  const ClusterSpec& cluster_;
  PfsConfig config_;
  const JobSpec& job_;
  obs::Tracer* tracer_ = nullptr;
  const faults::FaultInjector* faults_ = nullptr;
  /// tracer_ enabled state, latched at construction: per-RPC sites test a
  /// plain bool (same cost as the detached null check) instead of paying
  /// an atomic load 50k+ times per run.
  bool traceOn_ = false;
  RunScope scope_;
  std::uint32_t totalOsts_ = 0;

  OstBank osts_;
  MdsModel mds_;
  /// Per-(node,OST) osc.max_rpcs_in_flight caps, lane-indexed.
  sim::FlowLimiterBank oscFlow_;
  /// Per-node client NICs (1 server each), node-indexed.
  sim::ServiceCenterBank nics_;
  /// Per-node mdc.max_rpcs_in_flight and mdc.max_mod_rpcs_in_flight caps,
  /// node-indexed.
  sim::FlowLimiterBank mdcFlow_;
  sim::FlowLimiterBank modFlow_;
  /// Per-(node,OST) osc.max_dirty_mb budgets, lane-indexed.
  DirtyBank dirty_;
  /// Pending dirty segments awaiting RPC formation, lane-indexed.
  WritebackBank writeback_;
  /// Per-node streams for extent-conflict sampling, keyed by (run seed,
  /// global node id).
  std::vector<util::Rng> nodeRng_;

  std::vector<NodeState> nodes_;
  std::vector<RankState> ranks_;
  std::vector<FileState> files_;

  std::vector<FileStats> fileStats_;
  std::vector<RankStats> rankStats_;
  RunCounters counters_;

  /// Knob snapshot the readahead window machine decides against, resolved
  /// once at construction.
  ReadaheadKnobs readaKnobs_;
  /// Window machine event tallies (RunAudit / pfs.reada.*).
  std::uint64_t readaOpened_ = 0;
  std::uint64_t readaGrown_ = 0;
  std::uint64_t readaReset_ = 0;

  std::uint32_t barrierArrived_ = 0;
  std::uint32_t doneRanks_ = 0;
  std::vector<double> barrierTimes_;

  bool failed_ = false;
  std::string failureReason_;
};

}  // namespace stellar::pfs
