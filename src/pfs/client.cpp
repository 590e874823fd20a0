#include "pfs/client.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "faults/fault_injector.hpp"

namespace stellar::pfs {

namespace {

/// Extent-lock conflict probability scale for shared-file writes.
constexpr double kConflictAlphaRandom = 0.25;
constexpr double kConflictAlphaSequential = 0.04;

/// Upper bound on statahead scan length (safety, not a tunable).
constexpr std::size_t kMaxScanLength = 1 << 20;

/// Stream tag for the per-node extent-conflict RNGs.
constexpr std::uint64_t kNodeRngTag = 0xC11E27ULL;

}  // namespace

ClientRuntime::ClientRuntime(sim::SimEngine& engine, const ClusterSpec& cluster,
                             const PfsConfig& config, const JobSpec& job,
                             obs::Tracer* tracer, const faults::FaultInjector* faults,
                             RunScope scope)
    : engine_(engine), cluster_(cluster), config_(config), job_(job), tracer_(tracer),
      faults_(faults), traceOn_(obs::tracing(tracer)), scope_(scope),
      totalOsts_(cluster.totalOsts()),
      osts_(engine, cluster_, cluster.totalOsts(), scope.ostOffset, scope.runSeed),
      mds_(engine, cluster_, util::mix64(scope.runSeed, scope.ostOffset)),
      oscFlow_(engine, static_cast<std::size_t>(cluster.clientNodes) * cluster.totalOsts(),
               static_cast<std::uint32_t>(config.osc_max_rpcs_in_flight)),
      nics_(engine, cluster.clientNodes, 1),
      mdcFlow_(engine, cluster.clientNodes,
               static_cast<std::uint32_t>(config.mdc_max_rpcs_in_flight)),
      modFlow_(engine, cluster.clientNodes,
               static_cast<std::uint32_t>(config.mdc_max_mod_rpcs_in_flight)) {
  osts_.attachFaults(faults_);
  mds_.attachFaults(faults_);

  const std::size_t lanes = static_cast<std::size_t>(cluster.clientNodes) * totalOsts_;
  dirty_.configure(lanes,
                   static_cast<std::uint64_t>(config_.osc_max_dirty_mb) * util::kMiB);
  writeback_.configure(lanes);

  readaKnobs_.clientBudgetBytes =
      static_cast<std::uint64_t>(config_.llite_max_read_ahead_mb) * util::kMiB;
  readaKnobs_.perFileBytes =
      static_cast<std::uint64_t>(config_.llite_max_read_ahead_per_file_mb) *
      util::kMiB;
  readaKnobs_.wholeFileBytes =
      static_cast<std::uint64_t>(config_.llite_max_read_ahead_whole_mb) *
      util::kMiB;
  readaKnobs_.alignBytes = rpcBytes();

  const std::uint64_t nodeStreamSeed = util::mix64(scope.runSeed, kNodeRngTag);
  nodeRng_.reserve(cluster.clientNodes);
  for (std::uint32_t n = 0; n < cluster.clientNodes; ++n) {
    nodeRng_.emplace_back(util::mix64(nodeStreamSeed, scope.nodeOffset + n));
  }

  nodes_.resize(cluster.clientNodes);
  for (std::uint32_t n = 0; n < cluster.clientNodes; ++n) {
    NodeState& node = nodes_[n];
    node.locks.configure(static_cast<std::size_t>(config_.ldlm_lru_size),
                         static_cast<double>(config_.ldlm_lru_max_age));
    node.locks.setEvictionHandler([&node](FileId file) { node.pageValid[file] = 0; });
    node.openCount.assign(job.files.size(), 0);
    node.pageValid.assign(job.files.size(), 0);
    node.readahead.setBudget(static_cast<std::uint64_t>(config_.llite_max_read_ahead_mb) *
                             util::kMiB);
  }

  const std::uint32_t rankCount = job.rankCount();
  ranks_.resize(rankCount);
  for (std::uint32_t r = 0; r < rankCount; ++r) {
    ranks_[r].id = r;
    // Block distribution of ranks over nodes, as mpirun -bynode would not;
    // IOR-style launches place consecutive ranks on the same node.
    ranks_[r].node = r / std::max<std::uint32_t>(1, cluster.ranksPerNode) %
                     cluster.clientNodes;
  }

  files_.resize(job.files.size());
  for (FileId f = 0; f < files_.size(); ++f) {
    files_[f].layout = makeLayout(f);
  }
  fileStats_.resize(job.files.size());
  rankStats_.resize(rankCount);
}

ClientRuntime::~ClientRuntime() = default;

FileLayout ClientRuntime::makeLayout(FileId file) const {
  FileLayout layout;
  const std::uint32_t totalOsts = cluster_.totalOsts();
  const std::int64_t requested = config_.stripe_count;
  layout.stripeCount = requested < 0
                           ? totalOsts
                           : static_cast<std::uint32_t>(std::clamp<std::int64_t>(
                                 requested, 1, totalOsts));
  layout.stripeSize = static_cast<std::uint64_t>(std::max<std::int64_t>(
      config_.stripe_size, 64 * 1024));
  // Lustre's allocator picks starting OSTs by weighted free-space/QoS, not
  // a perfect round robin; with few files the resulting placement skew is
  // real and is one reason wider striping helps file-per-process workloads.
  // A hash reproduces that skew deterministically.
  layout.firstOst = static_cast<std::uint32_t>(util::mix64(file, 0x057A11) % totalOsts);
  layout.totalOsts = totalOsts;
  return layout;
}

std::uint64_t ClientRuntime::rpcBytes() const noexcept {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(config_.osc_max_pages_per_rpc, 1)) *
         util::kPageSize;
}

void ClientRuntime::start() {
  for (RankState& rank : ranks_) {
    engine_.scheduleAt(0.0, [this, &rank] { advance(rank); });
  }
}

// ------------------------------------------------------------- execution --

void ClientRuntime::advance(RankState& r) {
  const std::vector<IoOp>& program = job_.ranks[r.id];
  while (r.ip < program.size()) {
    const IoOp& op = program[r.ip];

    // Blocking-capable ops first spend any accrued local CPU time so the
    // simulated clock reflects client-side work without per-op events.
    const bool mayBlock = op.kind != OpKind::Write && op.kind != OpKind::Close &&
                          op.kind != OpKind::Compute;
    if (mayBlock && r.accrued > 0.0) {
      const double dt = r.accrued;
      r.accrued = 0.0;
      engine_.scheduleAfter(dt, [this, &r] { advance(r); });
      return;
    }

    switch (op.kind) {
      case OpKind::Compute: {
        const double dt = op.seconds + r.accrued;
        r.accrued = 0.0;
        rankStats_[r.id].computeTime += op.seconds;
        ++r.ip;
        engine_.scheduleAfter(dt, [this, &r] { advance(r); });
        return;
      }
      case OpKind::Barrier: {
        blockRank(r, OpKind::Barrier);
        ++barrierArrived_;
        if (barrierArrived_ == ranks_.size()) {
          barrierArrived_ = 0;
          barrierTimes_.push_back(engine_.now());
          for (RankState& other : ranks_) {
            engine_.scheduleAfter(0.0, [this, &other] { resumeRank(other); });
          }
        }
        return;
      }
      case OpKind::Close: {
        execCloseLocal(r, op);
        ++r.ip;
        break;
      }
      case OpKind::Write: {
        if (!execWrite(r, op)) {
          return;
        }
        ++r.ip;
        break;
      }
      case OpKind::Read: {
        if (!execRead(r, op)) {
          return;
        }
        ++r.ip;
        break;
      }
      case OpKind::Stat: {
        if (!execStat(r, op)) {
          return;
        }
        ++r.ip;
        break;
      }
      case OpKind::Mkdir:
      case OpKind::Create:
      case OpKind::Open:
      case OpKind::Unlink:
      case OpKind::Fsync: {
        if (!execMeta(r, op)) {
          return;
        }
        ++r.ip;
        break;
      }
    }
  }

  if (r.accrued > 0.0) {
    const double dt = r.accrued;
    r.accrued = 0.0;
    engine_.scheduleAfter(dt, [this, &r] { advance(r); });
    return;
  }
  rankFinished(r);
}

void ClientRuntime::blockRank(RankState& r, OpKind kind) {
  r.blockStart = engine_.now();
  r.blockKind = kind;
}

void ClientRuntime::resumeRank(RankState& r) {
  const double delta = engine_.now() - r.blockStart;
  const IoOp& op = job_.ranks[r.id][r.ip];
  RankStats& rs = rankStats_[r.id];
  FileStats* fs = op.file != kInvalidFile && op.file < fileStats_.size()
                      ? &fileStats_[op.file]
                      : nullptr;

  switch (r.blockKind) {
    case OpKind::Read: {
      rs.readTime += delta;
      if (fs != nullptr) {
        fs->readTime += delta;
      }
      // Consume the cached portions of the range we just read.
      nodes_[r.node].readahead.consume(op.file, op.offset, op.offset + op.size);
      FdState& fd = r.fds[op.file];
      fd.lastReadEnd = op.offset + op.size;
      fd.everRead = true;
      break;
    }
    case OpKind::Write: {
      rs.writeTime += delta;
      if (fs != nullptr) {
        fs->writeTime += delta;
      }
      // Re-enter execWrite to finish remaining segments.
      advance(r);
      return;
    }
    case OpKind::Barrier:
      break;
    case OpKind::Fsync:
      rs.writeTime += delta;
      if (fs != nullptr) {
        fs->writeTime += delta;
      }
      break;
    default: {  // metadata kinds
      rs.metaTime += delta;
      if (fs != nullptr) {
        fs->metaTime += delta;
      }
      break;
    }
  }

  ++r.ip;
  advance(r);
}

void ClientRuntime::completeOneWait(RankState& r) {
  assert(r.pendingWaits > 0);
  if (--r.pendingWaits == 0) {
    resumeRank(r);
  }
}

void ClientRuntime::rankFinished(RankState& r) {
  if (r.done) {
    return;
  }
  r.done = true;
  rankStats_[r.id].finishTime = engine_.now();
  ++doneRanks_;
  if (doneRanks_ == ranks_.size()) {
    flushAllNodes();
  }
}

// -------------------------------------------------------------- metadata --

bool ClientRuntime::execMeta(RankState& r, const IoOp& op) {
  NodeState& node = nodes_[r.node];
  const double syscall = cluster_.clientSyscallCost;

  switch (op.kind) {
    case OpKind::Mkdir: {
      blockRank(r, OpKind::Mkdir);
      r.pendingWaits = 1;
      submitMeta(r.node, MetaOpKind::Mkdir, 1, true,
                 engine_.park([this, &r] { completeOneWait(r); }));
      return false;
    }
    case OpKind::Create: {
      FileState& f = files_[op.file];
      FileStats& fs = fileStats_[op.file];
      ++fs.creates;
      fs.rankMask |= 1ULL << (r.id % 64);
      f.layout = makeLayout(op.file);
      blockRank(r, OpKind::Create);
      r.pendingWaits = 1;
      submitMeta(r.node, MetaOpKind::Create, f.layout.stripeCount, true,
                 engine_.park([this, &r, &f, file = op.file] {
                   f.exists = true;
                   cacheLock(ranks_[r.id].node, file);
                   ++nodes_[r.node].openCount[file];
                   completeOneWait(r);
                 }));
      return false;
    }
    case OpKind::Open: {
      FileStats& fs = fileStats_[op.file];
      ++fs.opens;
      fs.rankMask |= 1ULL << (r.id % 64);
      if (lockCached(r.node, op.file)) {
        // Cached open lock: the open is satisfied from the client cache.
        r.accrued += syscall;
        ++node.openCount[op.file];
        return true;
      }
      blockRank(r, OpKind::Open);
      r.pendingWaits = 1;
      submitMeta(r.node, MetaOpKind::Open, 1, false,
                 engine_.park([this, &r, file = op.file, waitStart = engine_.now()] {
                   noteLockWait(engine_.now() - waitStart);
                   cacheLock(r.node, file);
                   ++nodes_[r.node].openCount[file];
                   completeOneWait(r);
                 }));
      return false;
    }
    case OpKind::Unlink: {
      FileState& f = files_[op.file];
      FileStats& fs = fileStats_[op.file];
      ++fs.unlinks;
      fs.rankMask |= 1ULL << (r.id % 64);
      // Discard this node's pending dirty segments for the file. They
      // only ever land on the file's layout lanes.
      f.layout.forEachOst([&](std::uint32_t ost) {
        const std::size_t l = lane(r.node, ost);
        const std::uint64_t discarded = writeback_.discardFile(l, op.file);
        if (discarded > 0) {
          dirty_.release(l, discarded);
          counters_.dirtyDiscardedBytes += discarded;
        }
      });
      for (sim::Callback& waiter : node.readahead.dropFile(op.file)) {
        engine_.scheduleAfter(0.0, std::move(waiter));
      }
      node.locks.erase(op.file);
      node.pageValid[op.file] = 0;
      blockRank(r, OpKind::Unlink);
      r.pendingWaits = 1;
      submitMeta(r.node, MetaOpKind::Unlink, f.layout.stripeCount, true,
                 engine_.park([this, &r, &f] {
                   f.exists = false;
                   f.size = 0;
                   f.writerNodeMask = 0;
                   completeOneWait(r);
                 }));
      return false;
    }
    case OpKind::Fsync: {
      FileStats& fs = fileStats_[op.file];
      ++fs.fsyncs;
      files_[op.file].layout.forEachOst(
          [&](std::uint32_t ost) { flushPending(r.node, ost, op.file); });
      const auto it = node.flushInFlight.find(op.file);
      if (it == node.flushInFlight.end() || it->second == 0) {
        r.accrued += syscall;
        return true;
      }
      blockRank(r, OpKind::Fsync);
      r.pendingWaits = 1;
      node.fsyncWaiters[op.file].emplace_back([this, &r] { completeOneWait(r); });
      return false;
    }
    default:
      return true;
  }
}

bool ClientRuntime::execStat(RankState& r, const IoOp& op) {
  NodeState& node = nodes_[r.node];
  FileStats& fs = fileStats_[op.file];
  ++fs.stats;
  fs.rankMask |= 1ULL << (r.id % 64);

  // Valid cached lock => attributes served from the client cache. A
  // statahead entry for this op, ready or in flight, is then never read.
  if (lockCached(r.node, op.file)) {
    r.statEntries.erase(r.ip);
    r.accrued += cluster_.clientSyscallCost;
    return true;
  }

  if (config_.llite_statahead_max > 0) {
    // Consume a statahead entry if the pipeline has (or will have) one.
    const auto entry = r.statEntries.find(r.ip);
    if (entry != r.statEntries.end()) {
      if (entry->second) {  // ready
        ++counters_.stataheadServed;
        r.statEntries.erase(entry);
        r.accrued += cluster_.clientSyscallCost;
        return true;
      }
      // In flight: wait for it.
      blockRank(r, OpKind::Stat);
      r.waitingOnStat = r.ip;
      return false;
    }
    if (r.scan && r.ip >= r.scan->nextToIssue && r.ip < r.scan->endIndex) {
      // The rank outran the statahead pipeline (possible under reordered
      // completions); skip the pipeline for this entry and stat it
      // synchronously, as the real statahead thread would be bypassed.
      r.scan->nextToIssue = r.ip + 1;
    } else {
      maybeStartScan(r);
    }
    const auto started = r.statEntries.find(r.ip);
    if (started != r.statEntries.end()) {
      if (started->second) {
        ++counters_.stataheadServed;
        r.statEntries.erase(started);
        r.accrued += cluster_.clientSyscallCost;
        return true;
      }
      blockRank(r, OpKind::Stat);
      r.waitingOnStat = r.ip;
      return false;
    }
  }

  // Plain synchronous stat RPC.
  blockRank(r, OpKind::Stat);
  r.pendingWaits = 1;
  (void)node;
  submitMeta(r.node, MetaOpKind::Stat, 1, false,
             engine_.park([this, &r, file = op.file, waitStart = engine_.now()] {
               noteLockWait(engine_.now() - waitStart);
               cacheLock(r.node, file);
               completeOneWait(r);
             }));
  return false;
}

void ClientRuntime::maybeStartScan(RankState& r) {
  const std::vector<IoOp>& program = job_.ranks[r.id];
  // A scan starts when at least two consecutive Stat ops lie ahead
  // (the statahead thread triggers on a detected stat pattern).
  if (r.ip + 1 >= program.size() || program[r.ip + 1].kind != OpKind::Stat) {
    return;
  }
  std::size_t end = r.ip;
  while (end < program.size() && program[end].kind == OpKind::Stat &&
         end - r.ip < kMaxScanLength) {
    ++end;
  }
  r.scan = StataheadScan{r.ip, end, 0};
  pumpStatahead(r);
}

void ClientRuntime::pumpStatahead(RankState& r) {
  if (!r.scan) {
    return;
  }
  StataheadScan& scan = *r.scan;
  const std::vector<IoOp>& program = job_.ranks[r.id];
  const auto window = static_cast<std::uint32_t>(config_.llite_statahead_max);
  while (scan.inFlight < window && scan.nextToIssue < scan.endIndex) {
    const std::size_t idx = scan.nextToIssue++;
    const FileId file = program[idx].file;
    if (nodes_[r.node].locks.touch(file, engine_.now())) {
      // Already covered by a cached lock; mark ready with no RPC.
      ++counters_.lockHits;
      r.statEntries[idx] = true;
      continue;
    }
    ++counters_.lockMisses;
    r.statEntries[idx] = false;
    ++scan.inFlight;
    submitMeta(r.node, MetaOpKind::Stat, 1, false, engine_.park([this, &r, idx, file] {
      cacheLock(r.node, file);
      auto it = r.statEntries.find(idx);
      if (it != r.statEntries.end()) {
        it->second = true;
      }
      if (r.scan) {
        --r.scan->inFlight;
        if (r.scan->nextToIssue >= r.scan->endIndex && r.scan->inFlight == 0) {
          r.scan.reset();
        }
      }
      // Refill the pipeline *before* waking the rank so the rank never
      // outruns the statahead window on resume.
      pumpStatahead(r);
      if (r.waitingOnStat && *r.waitingOnStat == idx) {
        r.waitingOnStat.reset();
        ++counters_.stataheadServed;
        r.statEntries.erase(idx);
        resumeRank(r);
      }
    }));
  }
  if (r.scan && scan.nextToIssue >= scan.endIndex && scan.inFlight == 0) {
    r.scan.reset();
  }
}

// ------------------------------------------------------------- delivery --

void ClientRuntime::failRun(std::string reason) {
  if (!failed_) {
    failed_ = true;
    failureReason_ = std::move(reason);
  }
}

void ClientRuntime::deliverRpc(RpcDelivery d) {
  // Fast path: no fault plan attached. Degenerates to the pre-fault event
  // chain (the launch is served straight into complete), so runs without
  // faults are bit-identical to the fault-layer-free simulator.
  if (faults_ == nullptr) {
    launchRpc(d, std::move(d.complete));
    return;
  }
  const bool down =
      d.ost >= 0 && faults_->ostDown(static_cast<std::size_t>(d.ost));
  if (!down && !faults_->sampleRpcDrop()) {
    const double stall = faults_->rpcStallSeconds();
    if (stall <= 0.0) {
      launchRpc(d, std::move(d.complete));
    } else {
      // Stall windows delay the delivery launch (slow wire, not loss).
      engine_.scheduleAfter(stall, [this, d = std::move(d)]() mutable {
        launchRpc(d, std::move(d.complete));
      });
    }
    return;
  }

  // Lost delivery: the client notices at rpcTimeout, then backs off
  // exponentially (capped at 8x) before redelivering.
  ++counters_.rpcTimeouts;
  const double timeout = cluster_.network.rpcTimeout;
  if (d.attempt >= cluster_.network.rpcMaxRetries) {
    ++counters_.rpcGaveUp;
    failRun("rpc to " + (d.ost >= 0 ? "ost " + std::to_string(d.ost) : std::string{"mds"}) +
            " gave up after " + std::to_string(d.attempt + 1) + " attempts at t=" +
            std::to_string(engine_.now()));
    if (traceOn_) {
      tracer_->instant("rpc", "gave-up",
                       {{"ost", util::Json(static_cast<std::int64_t>(d.ost))},
                        {"sim_time", util::Json(engine_.now())}});
    }
    // Completing anyway releases limiters/budgets and wakes waiters: the
    // run drains and reports Failed instead of deadlocking.
    engine_.scheduleAfter(timeout, std::move(d.complete));
    return;
  }
  ++counters_.rpcRetries;
  if (traceOn_) {
    tracer_->instant("rpc", "retry",
                     {{"ost", util::Json(static_cast<std::int64_t>(d.ost))},
                      {"attempt", util::Json(static_cast<std::int64_t>(d.attempt + 1))},
                      {"sim_time", util::Json(engine_.now())}});
  }
  const double backoff =
      std::min(timeout * static_cast<double>(1ULL << std::min<std::uint32_t>(d.attempt, 3)),
               8.0 * timeout);
  ++d.attempt;
  engine_.scheduleAfter(timeout + backoff, [this, d = std::move(d)]() mutable {
    deliverRpc(std::move(d));
  });
}

void ClientRuntime::launchRpc(const RpcDelivery& d, sim::Parked served) {
  const double latency = cluster_.network.messageLatency;
  if (d.ost < 0) {
    engine_.scheduleAfter(latency, [this, kind = d.metaKind, stripeCount = d.stripeCount,
                                    latency, served = std::move(served)]() mutable {
      mds_.submit(kind, stripeCount,
                  [this, latency, served = std::move(served)]() mutable {
                    engine_.scheduleAfter(latency, std::move(served));
                  });
    });
    return;
  }
  const double wireTime = static_cast<double>(d.bytes) / cluster_.network.nicBandwidth;
  if (d.isWrite) {
    // Client NIC, request trip, OST bulk service, reply trip.
    nics_.submit(d.node, wireTime, [this, ost = d.localOst, file = d.file,
                                    objectOffset = d.objectOffset, bytes = d.bytes, latency,
                                    served = std::move(served)]() mutable {
      engine_.scheduleAfter(latency, [this, ost, file, objectOffset, bytes, latency,
                                      served = std::move(served)]() mutable {
        osts_.submitBulk(ost, file, objectOffset, bytes, /*isWrite=*/true,
                         [this, latency, served = std::move(served)]() mutable {
          engine_.scheduleAfter(latency, std::move(served));
        });
      });
    });
    return;
  }
  // Request trip, OST bulk service, then the response data crosses the
  // client NIC before the reply trip.
  engine_.scheduleAfter(latency, [this, node = d.node, ost = d.localOst, file = d.file,
                                  objectOffset = d.objectOffset, bytes = d.bytes, latency,
                                  wireTime, served = std::move(served)]() mutable {
    osts_.submitBulk(ost, file, objectOffset, bytes, /*isWrite=*/false,
                     [this, node, wireTime, latency,
                      served = std::move(served)]() mutable {
      nics_.submit(node, wireTime, [this, latency, served = std::move(served)]() mutable {
        engine_.scheduleAfter(latency, std::move(served));
      });
    });
  });
}

void ClientRuntime::submitMeta(std::uint32_t nodeIdx, MetaOpKind kind,
                               std::uint32_t stripeCount, bool modifying,
                               sim::Parked onDone) {
  ++counters_.metaRpcs;
  if (traceOn_) {
    tracer_->instant("rpc", std::string("meta:") + metaOpName(kind),
                     {{"sim_time", util::Json(engine_.now())}});
  }
  RpcDelivery d{
      .ost = -1,
      .node = nodeIdx,
      .metaKind = kind,
      .stripeCount = stripeCount,
      .complete = engine_.park([this, nodeIdx, modifying,
                                onDone = std::move(onDone)]() mutable {
        mdcFlow_.release(nodeIdx);
        if (modifying) {
          modFlow_.release(nodeIdx);
        }
        engine_.run(std::move(onDone));
      }),
  };
  auto issue = [this, d = std::move(d)]() mutable {
    const std::uint32_t node = d.node;
    mdcFlow_.acquire(node, [this, d = std::move(d)]() mutable { deliverRpc(std::move(d)); });
  };
  if (modifying) {
    modFlow_.acquire(nodeIdx, std::move(issue));
  } else {
    issue();
  }
}

// ------------------------------------------------------------------ data --

bool ClientRuntime::execWrite(RankState& r, const IoOp& op) {
  FileState& f = files_[op.file];
  FileStats& fs = fileStats_[op.file];

  if (!r.segmentsValid) {
    r.segments = mapExtent(f.layout, op.offset, op.size);
    r.segIndex = 0;
    r.segmentsValid = true;

    ++fs.writeOps;
    fs.bytesWritten += op.size;
    fs.recordAccess(op.size);
    fs.minAccess = std::min(fs.minAccess, op.size);
    fs.maxAccess = std::max(fs.maxAccess, op.size);
    fs.maxOffset = std::max(fs.maxOffset, op.offset + op.size);
    fs.rankMask |= 1ULL << (r.id % 64);
    rankStats_[r.id].bytesWritten += op.size;

    FdState& fd = r.fds[op.file];
    const bool sequential =
        (op.offset == fd.lastWriteEnd && fd.lastWriteEnd != 0) || op.offset == 0;
    if (sequential) {
      ++fs.seqWrites;
    }
    fd.lastWriteEnd = op.offset + op.size;

    double cost = cluster_.clientSyscallCost;
    if (config_.osc_checksums) {
      cost += cluster_.checksumCostPerByte * static_cast<double>(op.size);
    }
    r.accrued += cost;
    rankStats_[r.id].writeTime += cost;
    fs.writeTime += cost;

    // Extent-lock conflicts on shared files written from several nodes.
    const std::uint64_t nodeBit = 1ULL << r.node;
    const std::uint64_t others = f.writerNodeMask & ~nodeBit;
    f.writerNodeMask |= nodeBit;
    nodes_[r.node].pageValid[op.file] = 1;
    f.size = std::max(f.size, op.offset + op.size);
    if (others != 0) {
      const int k = std::popcount(f.writerNodeMask);
      const double alpha = sequential ? kConflictAlphaSequential : kConflictAlphaRandom;
      const double p = alpha * static_cast<double>(k - 1) / static_cast<double>(k);
      if (nodeRng_[r.node].chance(p)) {
        ++counters_.extentConflicts;
        r.accrued += cluster_.extentLockConflictCost;
        rankStats_[r.id].writeTime += cluster_.extentLockConflictCost;
        fs.writeTime += cluster_.extentLockConflictCost;
      }
    }
  }

  while (r.segIndex < r.segments.size()) {
    const ObjectExtent& seg = r.segments[r.segIndex];
    const std::size_t l = lane(r.node, seg.ost);
    if (r.reservedSegment || dirty_.tryReserve(l, seg.length)) {
      r.reservedSegment = false;
      writeback_.append(l, op.file, seg.objectOffset, seg.length);
      ++r.segIndex;
      // Flush at the RPC coalescing threshold — or immediately when other
      // ranks are queued on this lane's dirty budget. Without the second
      // condition a rank admitted from the wait queue can park its segment
      // in the write-back bank forever (close never flushes), starving the
      // remaining waiters once its program ends: a real deadlock whenever
      // osc_max_dirty_mb is smaller than the RPC size.
      if (writeback_.pendingBytes(l) >= rpcBytes() || dirty_.waiterCount(l) > 0) {
        flushPending(r.node, seg.ost);
      }
      continue;
    }
    // No dirty budget: push current pending data out and wait for space.
    flushPending(r.node, seg.ost);
    blockRank(r, OpKind::Write);
    dirty_.waitForSpace(l, seg.length, sim::Callback{[this, &r] {
      // The waiter's reservation is already charged; mark it so the
      // re-entered execWrite records the segment without re-reserving.
      r.reservedSegment = true;
      engine_.scheduleAfter(0.0, [this, &r] { resumeRank(r); });
    }});
    return false;
  }

  r.segmentsValid = false;
  return true;
}

void ClientRuntime::flushPending(std::uint32_t nodeIdx, std::uint32_t ost, FileId onlyFile) {
  const std::size_t l = lane(nodeIdx, ost);
  (void)writeback_.drain(
      l, onlyFile != kInvalidFile, onlyFile, rpcBytes(),
      [this, nodeIdx, ost](FileId file, std::uint64_t objectOffset,
                           std::uint64_t bytes) {
        issueWriteRpc(nodeIdx, ost, file, objectOffset, bytes);
      });
}

void ClientRuntime::flushAllNodes() {
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    for (std::uint32_t o = 0; o < totalOsts_; ++o) {
      flushPending(n, o);
    }
  }
}

void ClientRuntime::issueWriteRpc(std::uint32_t nodeIdx, std::uint32_t ost, FileId file,
                                  std::uint64_t objectOffset, std::uint64_t bytes) {
  ++counters_.dataRpcs;
  counters_.writeRpcBytes += bytes;
  const std::uint32_t globalOst = osts_.globalIndex(ost);
  if (traceOn_) {
    tracer_->instant("rpc", "write",
                     {{"ost", util::Json(static_cast<std::int64_t>(globalOst))},
                      {"bytes", util::Json(static_cast<std::int64_t>(bytes))},
                      {"sim_time", util::Json(engine_.now())}});
  }
  NodeState& node = nodes_[nodeIdx];
  ++node.flushInFlight[file];
  const std::size_t l = lane(nodeIdx, ost);
  RpcDelivery d{
      .ost = static_cast<std::int32_t>(globalOst),
      .node = nodeIdx,
      .localOst = ost,
      .isWrite = true,
      .file = file,
      .objectOffset = objectOffset,
      .bytes = bytes,
      .complete = engine_.park([this, &node, l, file, bytes] {
        oscFlow_.release(l);
        dirty_.release(l, bytes);
        auto it = node.flushInFlight.find(file);
        if (it != node.flushInFlight.end() && it->second > 0) {
          --it->second;
          if (it->second == 0) {
            auto wit = node.fsyncWaiters.find(file);
            if (wit != node.fsyncWaiters.end()) {
              std::vector<sim::Callback> waiters = std::move(wit->second);
              node.fsyncWaiters.erase(wit);
              for (sim::Callback& w : waiters) {
                w();
              }
            }
          }
        }
      }),
  };
  oscFlow_.acquire(l, [this, d = std::move(d)]() mutable { deliverRpc(std::move(d)); });
}

void ClientRuntime::issueReadRpc(std::uint32_t nodeIdx, std::uint32_t ost, FileId file,
                                 std::uint64_t objectOffset, std::uint64_t bytes,
                                 sim::Parked onDone) {
  ++counters_.dataRpcs;
  counters_.readRpcBytes += bytes;
  const std::uint32_t globalOst = osts_.globalIndex(ost);
  if (traceOn_) {
    tracer_->instant("rpc", "read",
                     {{"ost", util::Json(static_cast<std::int64_t>(globalOst))},
                      {"bytes", util::Json(static_cast<std::int64_t>(bytes))},
                      {"sim_time", util::Json(engine_.now())}});
  }
  const std::size_t l = lane(nodeIdx, ost);
  RpcDelivery d{
      .ost = static_cast<std::int32_t>(globalOst),
      .node = nodeIdx,
      .localOst = ost,
      .file = file,
      .objectOffset = objectOffset,
      .bytes = bytes,
      .complete = engine_.park([this, l, onDone = std::move(onDone)]() mutable {
        oscFlow_.release(l);
        engine_.run(std::move(onDone));
      }),
  };
  oscFlow_.acquire(l, [this, d = std::move(d)]() mutable { deliverRpc(std::move(d)); });
}

bool ClientRuntime::execRead(RankState& r, const IoOp& op) {
  FileState& f = files_[op.file];
  FileStats& fs = fileStats_[op.file];
  NodeState& node = nodes_[r.node];
  FdState& fd = r.fds[op.file];

  ++fs.readOps;
  fs.bytesRead += op.size;
  fs.recordAccess(op.size);
  fs.minAccess = std::min(fs.minAccess, op.size);
  fs.maxAccess = std::max(fs.maxAccess, op.size);
  fs.rankMask |= 1ULL << (r.id % 64);
  rankStats_[r.id].bytesRead += op.size;

  const bool sequential = fd.everRead && op.offset == fd.lastReadEnd;
  if (sequential) {
    ++fs.seqReads;
  }

  double cost = cluster_.clientSyscallCost;
  if (config_.osc_checksums) {
    cost += cluster_.checksumCostPerByte * static_cast<double>(op.size);
  }
  r.accrued += cost;
  rankStats_[r.id].readTime += cost;
  fs.readTime += cost;

  // Page-cache hit: a file written solely by this node whose pages never
  // lost their protecting lock serves reads locally (Lustre drops the
  // pages when the DLM lock is evicted or expires).
  const std::uint64_t nodeBit = 1ULL << r.node;
  if (f.writerNodeMask == nodeBit && node.pageValid[op.file] != 0 &&
      node.locks.touch(op.file, engine_.now())) {
    ++counters_.lockHits;
    counters_.pageCacheHitBytes += op.size;
    fd.lastReadEnd = op.offset + op.size;
    fd.everRead = true;
    return true;
  }

  const std::uint64_t readEnd = op.offset + op.size;
  const std::uint64_t knownSize = std::max(f.size, fs.maxOffset);

  // Hit accounting *before* this read triggers any new fetches.
  Coverage before = node.readahead.query(op.file, op.offset, readEnd);
  std::uint64_t missingBytes = 0;
  for (const auto& [b, e] : before.missing) {
    missingBytes += e - b;
  }
  counters_.readaheadHitBytes += op.size - std::min(op.size, missingBytes);
  counters_.readaheadMissBytes += missingBytes;

  // Advance this fd's sliding window. Whole-file mode additionally requires
  // the client to actually know the file size — a cached DLM lock, which an
  // open or a statahead scan primes (the statahead interaction).
  const bool sizeKnown = node.locks.contains(op.file, engine_.now());
  const ReadaDecision decision =
      advanceWindow(fd.ra, readaKnobs_, sequential, !fd.everRead, sizeKnown,
                    op.offset, readEnd, knownSize);
  switch (decision.event) {
    case ReadaEvent::Opened: ++readaOpened_; break;
    case ReadaEvent::Grown: ++readaGrown_; break;
    case ReadaEvent::Reset: ++readaReset_; break;
    case ReadaEvent::None: break;
  }
  if (decision.wantsPrefetch()) {
    prefetchRange(r, op.file, decision.prefetchBegin, decision.prefetchEnd);
  }

  // Whatever remains uncovered after prefetch goes out as sync reads.
  Coverage cov = node.readahead.query(op.file, op.offset, readEnd);
  std::uint32_t waits = 0;
  for (const auto& [b, e] : cov.missing) {
    for (const ObjectExtent& piece : mapExtent(f.layout, b, e - b)) {
      std::uint64_t pos = 0;
      while (pos < piece.length) {
        const std::uint64_t len = std::min(rpcBytes(), piece.length - pos);
        ++waits;
        issueReadRpc(r.node, piece.ost, op.file, piece.objectOffset + pos, len,
                     engine_.park([this, &r] { completeOneWait(r); }));
        pos += len;
      }
    }
  }
  for (CacheChunk* chunk : cov.pending) {
    ++waits;
    chunk->waiters.emplace_back([this, &r] { completeOneWait(r); });
  }

  if (waits == 0) {
    node.readahead.consume(op.file, op.offset, readEnd);
    fd.lastReadEnd = readEnd;
    fd.everRead = true;
    return true;
  }
  blockRank(r, OpKind::Read);
  r.pendingWaits = waits;
  return false;
}

void ClientRuntime::prefetchRange(RankState& r, FileId file, std::uint64_t begin,
                                  std::uint64_t end) {
  if (end <= begin) {
    return;
  }
  NodeState& node = nodes_[r.node];
  const FileState& f = files_[file];
  Coverage cov = node.readahead.query(file, begin, end);
  for (const auto& [b, e] : cov.missing) {
    for (const ObjectExtent& piece : mapExtent(f.layout, b, e - b)) {
      std::uint64_t pos = 0;
      while (pos < piece.length) {
        const std::uint64_t len = std::min(rpcBytes(), piece.length - pos);
        if (node.readahead.freeBudget() < len) {
          return;  // global readahead budget exhausted
        }
        const std::uint64_t chunkBegin = piece.fileOffset + pos;
        (void)node.readahead.insertPending(file, chunkBegin, chunkBegin + len);
        issueReadRpc(r.node, piece.ost, file, piece.objectOffset + pos, len,
                     engine_.park([this, nodeIdx = r.node, file, chunkBegin] {
                       NodeState& n = nodes_[nodeIdx];
                       CacheChunk* chunk = n.readahead.find(file, chunkBegin);
                       if (chunk == nullptr) {
                         return;  // dropped (close/unlink) while in flight
                       }
                       n.readahead.markReady(chunk);
                       std::vector<sim::Callback> waiters = std::move(chunk->waiters);
                       chunk->waiters.clear();
                       for (sim::Callback& w : waiters) {
                         w();
                       }
                     }));
        pos += len;
      }
    }
  }
}

// ------------------------------------------------------------------ misc --

void ClientRuntime::execCloseLocal(RankState& r, const IoOp& op) {
  NodeState& node = nodes_[r.node];
  FileStats& fs = fileStats_[op.file];
  ++fs.closes;
  r.accrued += cluster_.clientSyscallCost;

  // Only reads and writes create an fd entry; closing a file the rank
  // never read or wrote has no window to close.
  if (const auto fd = r.fds.find(op.file); fd != r.fds.end()) {
    fd->second.ra.close();
  }

  std::uint32_t& open = node.openCount[op.file];
  if (open > 0 && --open == 0) {
    for (sim::Callback& waiter : node.readahead.dropFile(op.file)) {
      engine_.scheduleAfter(0.0, std::move(waiter));
    }
  }
  // Note: close does NOT flush dirty data. Lustre's background writeout
  // period is far longer than these workloads; dirty pages stay cached
  // until budget pressure, fsync, or job end — and an unlink before that
  // simply discards them (which is why MDWorkbench is metadata-bound).
}

bool ClientRuntime::lockCached(std::uint32_t nodeIdx, FileId file) {
  const bool hit = nodes_[nodeIdx].locks.touch(file, engine_.now());
  if (hit) {
    ++counters_.lockHits;
  } else {
    ++counters_.lockMisses;
  }
  return hit;
}

void ClientRuntime::cacheLock(std::uint32_t nodeIdx, FileId file) {
  nodes_[nodeIdx].locks.insert(file, engine_.now());
}

void ClientRuntime::noteLockWait(double seconds) {
  counters_.lockWaitSeconds += seconds;
  ++counters_.lockWaits;
  if (traceOn_) {
    tracer_->instant("lock", "dlm-wait", {{"seconds", util::Json(seconds)}});
  }
}

RunAudit ClientRuntime::audit() const {
  RunAudit a;
  a.osts.reserve(osts_.count());
  for (std::uint32_t i = 0; i < osts_.count(); ++i) {
    OstAudit o;
    o.rpcsServed = osts_.rpcsServed(i);
    o.bytesWritten = osts_.bytesWritten(i);
    o.bytesRead = osts_.bytesRead(i);
    o.seeks = osts_.seeks(i);
    o.positioningBusySeconds = osts_.positioningBusyTime(i);
    o.transferBusySeconds = osts_.transferBusyTime(i);
    o.peakQueue = osts_.peakQueue(i);
    a.osts.push_back(o);
  }
  a.dirtyBudgetBytes =
      static_cast<std::uint64_t>(config_.osc_max_dirty_mb) * util::kMiB;
  for (std::size_t l = 0; l < dirty_.laneCount(); ++l) {
    a.peakDirtyBytes = std::max(a.peakDirtyBytes, dirty_.peakDirtyBytes(l));
    a.maxDirtyReservationBytes =
        std::max(a.maxDirtyReservationBytes, dirty_.maxReservationBytes(l));
  }
  for (const NodeState& node : nodes_) {
    a.lockInserts += node.locks.inserts();
    a.lockEvictions += node.locks.evictions();
    a.lockResident += node.locks.size();
    a.readaPrefetchedBytes += node.readahead.prefetchedBytes();
    a.readaConsumedBytes += node.readahead.consumedBytes();
    a.readaDiscardedBytes += node.readahead.discardedBytes();
    a.readaResidentBytes += node.readahead.residentBytes();
  }
  for (const RankState& rank : ranks_) {
    a.stataheadPending += rank.statEntries.size();
  }
  a.readaWindowsOpened = readaOpened_;
  a.readaWindowsGrown = readaGrown_;
  a.readaWindowsReset = readaReset_;
  a.mdsOps = mds_.opsServed();
  a.mdsBusySeconds = mds_.busyTime();
  return a;
}

}  // namespace stellar::pfs
