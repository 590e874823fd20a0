#include "testkit/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace stellar::testkit {

namespace {

/// Relative tolerance for comparisons between accumulated doubles.
constexpr double kRelEps = 1e-9;

double relSlack(double scale) { return kRelEps * std::max(1.0, std::abs(scale)); }

void add(std::vector<Violation>& out, const std::string& law, std::string message) {
  out.push_back(Violation{law, std::move(message)});
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

const std::vector<std::string>& mutationNames() {
  static const std::vector<std::string> names = {
      "write-conservation", "read-partition", "rpc-balance",
      "dirty-bound",        "lock-balance",   "disk-bandwidth",
      "reada-conservation", "statahead-drain",
  };
  return names;
}

void applyMutation(const std::string& name, pfs::RunResult& result) {
  if (name == "write-conservation") {
    result.counters.writeRpcBytes += 4096;
  } else if (name == "read-partition") {
    result.counters.pageCacheHitBytes += 4096;
  } else if (name == "rpc-balance") {
    result.counters.dataRpcs += 1;
  } else if (name == "dirty-bound") {
    result.audit.peakDirtyBytes =
        std::max(result.audit.dirtyBudgetBytes, result.audit.maxDirtyReservationBytes) +
        1;
  } else if (name == "lock-balance") {
    result.audit.lockInserts += 1;
  } else if (name == "disk-bandwidth" && !result.audit.osts.empty()) {
    result.audit.osts[0].bytesWritten += 100ULL * 1024 * 1024;
  } else if (name == "reada-conservation") {
    result.audit.readaPrefetchedBytes += 4096;
  } else if (name == "statahead-drain") {
    result.audit.stataheadPending += 1;
  }
}

std::vector<Violation> checkRun(const GeneratedCase& cse, const pfs::RunResult& result) {
  std::vector<Violation> v;
  const pfs::RunCounters& c = result.counters;
  const pfs::RunAudit& a = result.audit;
  const bool drained = result.outcome != pfs::RunOutcome::TimedOut;
  const bool faultFree = cse.shape.faults.empty();

  // --- INV-Q*: time sanity -------------------------------------------------
  if (result.rawWallSeconds < 0.0 || result.wallSeconds < 0.0) {
    add(v, "INV-Q0", "negative wall time: raw=" + num(result.rawWallSeconds) +
                         " noisy=" + num(result.wallSeconds));
  }
  if (result.rawWallSeconds > 0.0 && result.wallSeconds <= 0.0) {
    add(v, "INV-Q0", "noise produced non-positive wall from raw=" +
                         num(result.rawWallSeconds));
  }
  if (result.rawWallSeconds > result.simEndSeconds + relSlack(result.simEndSeconds)) {
    add(v, "INV-Q1", "ranks finished after the event queue drained: rawWall=" +
                         num(result.rawWallSeconds) +
                         " simEnd=" + num(result.simEndSeconds));
  }
  for (std::size_t r = 0; r < result.ranks.size(); ++r) {
    const pfs::RankStats& rs = result.ranks[r];
    if (rs.finishTime < 0.0 || rs.readTime < 0.0 || rs.writeTime < 0.0 ||
        rs.metaTime < 0.0 || rs.computeTime < 0.0) {
      add(v, "INV-Q2", "rank " + std::to_string(r) + " has a negative time component");
      break;
    }
    const double categorized = rs.readTime + rs.writeTime + rs.metaTime + rs.computeTime;
    if (drained && categorized > rs.finishTime + relSlack(rs.finishTime) + 1e-12) {
      add(v, "INV-Q3", "rank " + std::to_string(r) +
                           " categorized time exceeds lifetime: " + num(categorized) +
                           " > finish=" + num(rs.finishTime));
      break;
    }
  }
  for (std::size_t i = 0; i < result.barrierTimes.size(); ++i) {
    const double t = result.barrierTimes[i];
    if (t < 0.0 ||
        (i > 0 && t < result.barrierTimes[i - 1] - relSlack(t)) ||
        t > result.simEndSeconds + relSlack(result.simEndSeconds)) {
      add(v, "INV-Q4", "barrier release times not sane at index " + std::to_string(i) +
                           ": t=" + num(t));
      break;
    }
  }

  // --- INV-R*: read byte conservation -------------------------------------
  std::uint64_t rankReadBytes = 0;
  std::uint64_t rankWriteBytes = 0;
  for (const pfs::RankStats& rs : result.ranks) {
    rankReadBytes += rs.bytesRead;
    rankWriteBytes += rs.bytesWritten;
  }
  if (drained) {
    const std::uint64_t partition =
        c.readaheadHitBytes + c.readaheadMissBytes + c.pageCacheHitBytes;
    if (partition != rankReadBytes) {
      add(v, "INV-R1",
          "read partition broken: readaheadHit+readaheadMiss+pageHit=" +
              std::to_string(partition) + " != bytesRead=" +
              std::to_string(rankReadBytes));
    }
    if (c.readRpcBytes < c.readaheadMissBytes) {
      add(v, "INV-R3", "fetched fewer bytes over RPC than were missing: rpc=" +
                           std::to_string(c.readRpcBytes) + " < miss=" +
                           std::to_string(c.readaheadMissBytes));
    }
  }

  // --- INV-W*: write byte conservation ------------------------------------
  if (drained) {
    const std::uint64_t expectedFlushed =
        rankWriteBytes - std::min(rankWriteBytes, c.dirtyDiscardedBytes);
    if (c.writeRpcBytes != expectedFlushed) {
      add(v, "INV-W1", "write conservation broken: writeRpcBytes=" +
                           std::to_string(c.writeRpcBytes) +
                           " != bytesWritten-discarded=" +
                           std::to_string(expectedFlushed) + " (written=" +
                           std::to_string(rankWriteBytes) + ", discarded=" +
                           std::to_string(c.dirtyDiscardedBytes) + ")");
    }
  }

  // --- server-side byte totals ---------------------------------------------
  std::uint64_t ostWrite = 0;
  std::uint64_t ostRead = 0;
  std::uint64_t ostRpcs = 0;
  for (const pfs::OstAudit& o : a.osts) {
    ostWrite += o.bytesWritten;
    ostRead += o.bytesRead;
    ostRpcs += o.rpcsServed;
  }
  if (drained) {
    const bool exact = faultFree || c.rpcGaveUp == 0;
    if (exact) {
      if (ostWrite != c.writeRpcBytes) {
        add(v, "INV-W2", "OSTs served " + std::to_string(ostWrite) +
                             " write bytes but clients sent " +
                             std::to_string(c.writeRpcBytes));
      }
      if (ostRead != c.readRpcBytes) {
        add(v, "INV-R2", "OSTs served " + std::to_string(ostRead) +
                             " read bytes but clients requested " +
                             std::to_string(c.readRpcBytes));
      }
    } else {
      if (ostWrite > c.writeRpcBytes) {
        add(v, "INV-W2", "OSTs served more write bytes than clients sent: " +
                             std::to_string(ostWrite) + " > " +
                             std::to_string(c.writeRpcBytes));
      }
      if (ostRead > c.readRpcBytes) {
        add(v, "INV-R2", "OSTs served more read bytes than clients requested: " +
                             std::to_string(ostRead) + " > " +
                             std::to_string(c.readRpcBytes));
      }
    }
    // Issued == served + gave-up, exactly, faults or not: lost deliveries
    // retry, and only an exhausted retry budget leaves an RPC unserved.
    const std::uint64_t issued = c.dataRpcs + c.metaRpcs;
    const std::uint64_t served = ostRpcs + a.mdsOps;
    if (issued != served + c.rpcGaveUp) {
      add(v, "INV-M2", "RPC balance broken: issued=" + std::to_string(issued) +
                           " != served=" + std::to_string(served) + " + gaveUp=" +
                           std::to_string(c.rpcGaveUp));
    }
  }

  // --- INV-B*: disk stage physics ------------------------------------------
  const pfs::DiskSpec& disk = cse.cluster.disk;
  for (std::size_t i = 0; i < a.osts.size(); ++i) {
    const pfs::OstAudit& o = a.osts[i];
    const std::uint64_t bytes = o.bytesWritten + o.bytesRead;
    // Every byte needs at least bytes/bandwidth transfer time; 0.95 is the
    // lower edge of the transfer jitter. Equivalently: effective bandwidth
    // never exceeds the disk spec (beyond jitter).
    const double minBusy =
        0.95 * static_cast<double>(bytes) / disk.sequentialBandwidth;
    if (o.transferBusySeconds + relSlack(minBusy) < minBusy) {
      add(v, "INV-B1", "ost " + std::to_string(i) + " served " +
                           std::to_string(bytes) + " bytes in " +
                           num(o.transferBusySeconds) +
                           "s transfer busy time — exceeds spec bandwidth (min busy " +
                           num(minBusy) + "s)");
    }
    if (o.transferBusySeconds >
        result.simEndSeconds + relSlack(result.simEndSeconds)) {
      add(v, "INV-B2", "ost " + std::to_string(i) +
                           " single-server transfer stage busy longer than the run: " +
                           num(o.transferBusySeconds) + "s > " +
                           num(result.simEndSeconds) + "s");
    }
    const double posCap =
        static_cast<double>(disk.queueDepth) * result.simEndSeconds;
    if (o.positioningBusySeconds > posCap + relSlack(posCap)) {
      add(v, "INV-B3", "ost " + std::to_string(i) + " positioning busy " +
                           num(o.positioningBusySeconds) + "s exceeds queueDepth*simEnd=" +
                           num(posCap) + "s");
    }
    if (o.seeks > o.rpcsServed) {
      add(v, "INV-B4", "ost " + std::to_string(i) + " counted more seeks (" +
                           std::to_string(o.seeks) + ") than RPCs served (" +
                           std::to_string(o.rpcsServed) + ")");
    }
  }

  // --- INV-D1: dirty pages bounded by budget -------------------------------
  const std::uint64_t dirtyCap =
      std::max(a.dirtyBudgetBytes, a.maxDirtyReservationBytes);
  if (a.peakDirtyBytes > dirtyCap) {
    add(v, "INV-D1", "peak dirty " + std::to_string(a.peakDirtyBytes) +
                         " bytes exceeds max(budget=" +
                         std::to_string(a.dirtyBudgetBytes) + ", largest reservation=" +
                         std::to_string(a.maxDirtyReservationBytes) + ")");
  }

  // --- INV-READA: prefetched-byte conservation -----------------------------
  // Every prefetched byte is consumed by a read, discarded with its file, or
  // still resident in the cache — exactly, on every run (the cache keeps
  // integer lifetime totals, so timeouts and faults don't excuse drift).
  if (a.readaPrefetchedBytes !=
      a.readaConsumedBytes + a.readaDiscardedBytes + a.readaResidentBytes) {
    add(v, "INV-READA",
        "readahead conservation broken: prefetched=" +
            std::to_string(a.readaPrefetchedBytes) +
            " != consumed=" + std::to_string(a.readaConsumedBytes) +
            " + discarded=" + std::to_string(a.readaDiscardedBytes) +
            " + resident=" + std::to_string(a.readaResidentBytes));
  }

  // --- INV-STATAHEAD: statahead entries drain with their stat ops ----------
  // A rank drops the entry for its stat op when it runs the op, whether the
  // entry or a cached lock serves it, so a drained run holds none.
  if (drained && a.stataheadPending != 0) {
    add(v, "INV-STATAHEAD", std::to_string(a.stataheadPending) +
                                " statahead entries outlived their stat ops");
  }

  // --- INV-L1: DLM lock lifecycle balance ----------------------------------
  if (a.lockInserts != a.lockEvictions + a.lockResident) {
    add(v, "INV-L1", "lock balance broken: inserts=" + std::to_string(a.lockInserts) +
                         " != evictions=" + std::to_string(a.lockEvictions) +
                         " + resident=" + std::to_string(a.lockResident));
  }

  // --- fault accounting -----------------------------------------------------
  if (faultFree && (c.rpcTimeouts != 0 || c.rpcRetries != 0 || c.rpcGaveUp != 0)) {
    add(v, "INV-F1", "fault-free run reported RPC loss: timeouts=" +
                         std::to_string(c.rpcTimeouts) + " retries=" +
                         std::to_string(c.rpcRetries) + " gaveUp=" +
                         std::to_string(c.rpcGaveUp));
  }
  if (c.rpcGaveUp > 0 && result.outcome == pfs::RunOutcome::Ok) {
    add(v, "INV-F2", "run reported Ok despite " + std::to_string(c.rpcGaveUp) +
                         " gave-up RPCs");
  }

  return v;
}

std::vector<Violation> checkObsConsistency(const obs::CounterRegistry& registry,
                                           const pfs::RunResult& result) {
  std::vector<Violation> v;
  const pfs::RunCounters& c = result.counters;
  const pfs::RunAudit& a = result.audit;
  // counter() is find-or-create, so a const registry cannot be queried
  // directly; snapshot() is the read-only view.
  const auto samples = registry.snapshot();
  const auto lookup = [&samples](std::string_view name) -> double {
    for (const obs::MetricSample& s : samples) {
      if (s.key.name == name && s.kind == obs::MetricSample::Kind::Counter) {
        return s.value;
      }
    }
    return -1.0;  // absent
  };
  std::uint64_t ostSeeks = 0;
  for (const pfs::OstAudit& ost : a.osts) {
    ostSeeks += ost.seeks;
  }
  const std::pair<const char*, double> expected[] = {
      {"pfs.rpc.data", static_cast<double>(c.dataRpcs)},
      {"pfs.rpc.meta", static_cast<double>(c.metaRpcs)},
      {"pfs.lock.hits", static_cast<double>(c.lockHits)},
      {"pfs.lock.misses", static_cast<double>(c.lockMisses)},
      {"pfs.cache.readahead_hit_bytes", static_cast<double>(c.readaheadHitBytes)},
      {"pfs.cache.readahead_miss_bytes", static_cast<double>(c.readaheadMissBytes)},
      {"pfs.cache.page_hit_bytes", static_cast<double>(c.pageCacheHitBytes)},
      {"pfs.meta.statahead_served", static_cast<double>(c.stataheadServed)},
      {"pfs.lock.extent_conflicts", static_cast<double>(c.extentConflicts)},
      {"pfs.lock.waits", static_cast<double>(c.lockWaits)},
      {"pfs.lock.wait_seconds", c.lockWaitSeconds},
      {"pfs.rpc.timeouts", static_cast<double>(c.rpcTimeouts)},
      {"pfs.rpc.retries", static_cast<double>(c.rpcRetries)},
      {"pfs.rpc.gave_up", static_cast<double>(c.rpcGaveUp)},
      {"pfs.reada.windows_opened", static_cast<double>(a.readaWindowsOpened)},
      {"pfs.reada.windows_grown", static_cast<double>(a.readaWindowsGrown)},
      {"pfs.reada.windows_reset", static_cast<double>(a.readaWindowsReset)},
      {"pfs.reada.prefetched_bytes", static_cast<double>(a.readaPrefetchedBytes)},
      {"pfs.reada.consumed_bytes", static_cast<double>(a.readaConsumedBytes)},
      {"pfs.reada.discarded_bytes", static_cast<double>(a.readaDiscardedBytes)},
      {"pfs.reada.resident_bytes", static_cast<double>(a.readaResidentBytes)},
      {"pfs.mds.ops", static_cast<double>(a.mdsOps)},
      {"pfs.ost.seeks", static_cast<double>(ostSeeks)},
  };
  for (const auto& [name, want] : expected) {
    const double got = lookup(name);
    if (got < 0.0) {
      add(v, "INV-O1", std::string("obs counter '") + name + "' was never flushed");
      continue;
    }
    if (std::abs(got - want) > relSlack(want)) {
      add(v, "INV-O1", std::string("obs counter '") + name + "'=" + num(got) +
                           " disagrees with the RunResult value " + num(want));
    }
  }
  return v;
}

}  // namespace stellar::testkit
