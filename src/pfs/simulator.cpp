#include "pfs/simulator.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "faults/fault_injector.hpp"
#include "sim/engine.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace stellar::pfs {

namespace {

/// Seed mix tag for the post-run measurement noise stream: one draw per
/// run, whatever the cell count.
constexpr std::uint64_t kNoiseTag = 0x9F0A5EEDULL;
/// Sigma of the multiplicative lognormal run-to-run noise.
constexpr double kNoiseSigma = 0.04;

/// One cell's share of a multi-cell job: its ranks, with files renumbered
/// in first-touch order, and the global id of each local file.
struct CellJob {
  JobSpec job;
  std::vector<FileId> localToGlobal;
};

/// Splits `job` by cell; a cell no rank lands in stays empty. A file
/// touched from two cells would couple them (cross-cell data paths do not
/// exist in the federation model), so that is a malformed job, reported
/// like any other validation failure.
std::vector<std::optional<CellJob>> splitIntoCells(const JobSpec& job,
                                                   const ClusterSpec& cl,
                                                   std::uint32_t cells) {
  std::vector<std::optional<CellJob>> cellJobs(cells);
  std::vector<std::int64_t> fileOwner(job.files.size(), -1);
  std::vector<FileId> fileLocal(job.files.size(), kInvalidFile);
  for (std::uint32_t r = 0; r < job.rankCount(); ++r) {
    const std::uint32_t c = (r / cl.ranksPerNode) / cl.nodesPerCell();
    auto& slot = cellJobs[c];
    if (!slot) {
      slot.emplace();
      slot->job.name = job.name + "@cell" + std::to_string(c);
      slot->job.dirs = job.dirs;
    }
    std::vector<IoOp> program = job.ranks[r];
    for (IoOp& op : program) {
      if (op.file == kInvalidFile) {
        continue;
      }
      if (fileOwner[op.file] < 0) {
        fileOwner[op.file] = c;
        fileLocal[op.file] =
            slot->job.addFile(job.files[op.file].name, job.files[op.file].dir);
        slot->localToGlobal.push_back(op.file);
      } else if (fileOwner[op.file] != static_cast<std::int64_t>(c)) {
        throw std::invalid_argument(
            "invalid job '" + job.name + "': file '" + job.files[op.file].name +
            "' is touched from more than one federation cell");
      }
      op.file = fileLocal[op.file];
    }
    slot->job.ranks.push_back(std::move(program));
  }
  return cellJobs;
}

/// What one cell's task keeps once its engine, injector and runtime are
/// gone: everything the fold needs except the rank and file stats, which
/// the task writes straight to their global slots.
struct CellResult {
  RunCounters counters;
  RunAudit audit;
  std::vector<double> barrierTimes;
  bool finished = false;  ///< every rank ran to its end
  bool failed = false;
  std::string failureReason;
  double wall = 0.0;  ///< latest rank finish time
  double end = 0.0;   ///< the cell engine's clock when it stopped
};

/// Publishes a folded run to the registry. Names are registered in this
/// order the first time a registry sees a run.
void publish(obs::CounterRegistry& registry, const RunResult& result) {
  const RunCounters& c = result.counters;
  const RunAudit& a = result.audit;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  registry.counter("pfs.rpc.data").add(count(c.dataRpcs));
  registry.counter("pfs.rpc.meta").add(count(c.metaRpcs));
  registry.counter("pfs.lock.hits").add(count(c.lockHits));
  registry.counter("pfs.lock.misses").add(count(c.lockMisses));
  registry.counter("pfs.lock.wait_seconds").add(c.lockWaitSeconds);
  registry.counter("pfs.lock.waits").add(count(c.lockWaits));
  registry.counter("pfs.cache.readahead_hit_bytes").add(count(c.readaheadHitBytes));
  registry.counter("pfs.cache.readahead_miss_bytes").add(count(c.readaheadMissBytes));
  registry.counter("pfs.cache.page_hit_bytes").add(count(c.pageCacheHitBytes));
  registry.counter("pfs.meta.statahead_served").add(count(c.stataheadServed));
  registry.counter("pfs.lock.extent_conflicts").add(count(c.extentConflicts));
  // Readahead window machine activity and the fate of every prefetched
  // byte (INV-READA checks the audit, INV-O1 that these match it).
  registry.counter("pfs.reada.windows_opened").add(count(a.readaWindowsOpened));
  registry.counter("pfs.reada.windows_grown").add(count(a.readaWindowsGrown));
  registry.counter("pfs.reada.windows_reset").add(count(a.readaWindowsReset));
  registry.counter("pfs.reada.prefetched_bytes").add(count(a.readaPrefetchedBytes));
  registry.counter("pfs.reada.consumed_bytes").add(count(a.readaConsumedBytes));
  registry.counter("pfs.reada.discarded_bytes").add(count(a.readaDiscardedBytes));
  registry.counter("pfs.reada.resident_bytes").add(count(a.readaResidentBytes));
  registry.counter("pfs.rpc.timeouts").add(count(c.rpcTimeouts));
  registry.counter("pfs.rpc.retries").add(count(c.rpcRetries));
  registry.counter("pfs.rpc.gave_up").add(count(c.rpcGaveUp));
  // Per-OST disk service split: positioning (seek/setup) vs serialized
  // media transfer. Their ratio is the seek-bound vs bandwidth-bound
  // signal a tuned configuration shifts.
  double seekTime = 0.0;
  double transferTime = 0.0;
  std::uint64_t seeks = 0;
  obs::Histogram& queueDepth = registry.histogram("pfs.ost.peak_queue");
  for (const OstAudit& ost : a.osts) {
    seekTime += ost.positioningBusySeconds;
    transferTime += ost.transferBusySeconds;
    seeks += ost.seeks;
    queueDepth.observe(static_cast<double>(ost.peakQueue));
  }
  registry.counter("pfs.ost.seek_seconds").add(seekTime);
  registry.counter("pfs.ost.transfer_seconds").add(transferTime);
  registry.counter("pfs.ost.seeks").add(count(seeks));
  registry.counter("pfs.mds.ops").add(count(a.mdsOps));
  registry.counter("pfs.mds.busy_seconds").add(a.mdsBusySeconds);
}

}  // namespace

const char* runOutcomeName(RunOutcome outcome) noexcept {
  switch (outcome) {
    case RunOutcome::Ok: return "ok";
    case RunOutcome::Failed: return "failed";
    case RunOutcome::TimedOut: return "timed-out";
  }
  return "?";
}

double RunResult::totalBytesRead() const noexcept {
  double total = 0.0;
  for (const RankStats& r : ranks) {
    total += static_cast<double>(r.bytesRead);
  }
  return total;
}

double RunResult::totalBytesWritten() const noexcept {
  double total = 0.0;
  for (const RankStats& r : ranks) {
    total += static_cast<double>(r.bytesWritten);
  }
  return total;
}

BoundsContext PfsSimulator::boundsContext() const noexcept {
  BoundsContext ctx;
  ctx.clientRamMb = cluster().clientRamMb();
  ctx.ostCount = cluster().totalOsts();
  return ctx;
}

RunResult PfsSimulator::run(const JobSpec& job, const PfsConfig& config,
                            std::uint64_t seed, const RunLimits& limits) const {
  const auto jobProblems = job.validate();
  if (!jobProblems.empty()) {
    throw std::invalid_argument("invalid job '" + job.name +
                                "': " + util::join(jobProblems, "; "));
  }
  const auto cfgProblems = validateConfig(config, boundsContext());
  if (!cfgProblems.empty()) {
    // Last line of defense for out-of-range knobs: every rejection is
    // counted so the chaos bench can prove none slipped past the agent-side
    // sanitizer (ISSUE 7).
    if (options_.counters != nullptr) {
      options_.counters->counter("pfs.sim.config_rejected").add();
    }
    throw std::invalid_argument("invalid PFS config: " + util::join(cfgProblems, "; "));
  }
  const ClusterSpec& cl = cluster();
  if (job.rankCount() > cl.totalRanks()) {
    throw std::invalid_argument("job requests more ranks than the cluster provides");
  }
  const std::uint32_t cells = std::max<std::uint32_t>(cl.cells, 1);
  if (cl.clientNodes % cells != 0 || cl.ossNodes % cells != 0) {
    throw std::invalid_argument(
        "federated cluster '" + cl.name + "': cells (" + std::to_string(cells) +
        ") must divide clientNodes and ossNodes evenly");
  }
  const std::uint32_t ostsPerCell = cl.ostsPerCell();

  obs::Tracer::Span runSpan = obs::beginSpan(options_.tracer, "sim", "pfs.run:" + job.name);

  // Every cell is an identical shared-nothing copy of this sub-cluster. One
  // cell runs the caller's job as given, file ids and all; more cells run
  // their split shares.
  ClusterSpec cellCluster = cl;
  cellCluster.clientNodes = cl.nodesPerCell();
  cellCluster.ossNodes = cl.ossNodes / cells;
  cellCluster.cells = 1;
  std::vector<std::optional<CellJob>> cellJobs;
  if (cells > 1) {
    cellJobs = splitIntoCells(job, cl, cells);
  }
  std::vector<std::uint32_t> liveCells;  ///< cells some rank landed in
  for (std::uint32_t c = 0; c < cells; ++c) {
    if (cells == 1 || cellJobs[c]) {
      liveCells.push_back(c);
    }
  }

  const bool haveFaults = options_.faults != nullptr && !options_.faults->empty();
  const bool capped = limits.maxSimSeconds > 0.0;
  RunResult result;
  result.ranks.resize(job.rankCount());
  result.files.resize(job.files.size());
  std::vector<CellResult> kept(liveCells.size());

  // One cell, start to finish, in one task. Its injector is armed before
  // its runtime schedules its start-of-run events, so window edges hold
  // stable FIFO positions against every client/server event — the
  // determinism contract. Engine, injector and runtime die with the task;
  // rank and file stats go to the cell's own global slots, so no two tasks
  // write the same element.
  const auto runCell = [&](std::size_t index) {
    const std::uint32_t c = liveCells[index];
    const JobSpec& cellJob = cells > 1 ? cellJobs[c]->job : job;
    sim::SimEngine engine;
    engine.attachObservability(options_.tracer, options_.counters);
    std::unique_ptr<faults::FaultInjector> injector;
    if (haveFaults) {
      injector = std::make_unique<faults::FaultInjector>(engine, *options_.faults,
                                                         cl.totalOsts(), seed, c);
      injector->attachObservability(options_.tracer, options_.counters);
      injector->arm();
    }
    ClientRuntime runtime{engine, cellCluster, config, cellJob, options_.tracer, injector.get(),
                          RunScope{seed, c * cellCluster.clientNodes, c * ostsPerCell}};
    runtime.start();
    if (capped) {
      (void)engine.runUntil(limits.maxSimSeconds);
    } else {
      (void)engine.run();  // drains trailing background writeout too
    }
    CellResult& cell = kept[index];
    cell.finished = runtime.allRanksDone();
    if (capped && !cell.finished) {
      // Retire still-open fault windows, so each fires (and traces) its
      // close edge before the injector dies with this task.
      engine.cancelOpenWindows();
    }
    cell.counters = runtime.counters();
    cell.counters.events = engine.eventsProcessed();
    cell.audit = runtime.audit();
    cell.barrierTimes = runtime.barrierTimes();
    cell.failed = runtime.failed();
    cell.failureReason = runtime.failureReason();
    cell.end = engine.now();
    const std::vector<RankStats>& rs = runtime.rankStats();
    const std::size_t rankOffset = static_cast<std::size_t>(c) * cl.ranksPerCell();
    for (std::size_t i = 0; i < rs.size(); ++i) {
      result.ranks[rankOffset + i] = rs[i];
      cell.wall = std::max(cell.wall, rs[i].finishTime);
    }
    const std::vector<FileStats>& fsv = runtime.fileStats();
    for (std::size_t i = 0; i < fsv.size(); ++i) {
      result.files[cells > 1 ? cellJobs[c]->localToGlobal[i] : i] = fsv[i];
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      {std::max<std::size_t>(options_.workers, 1), liveCells.size(),
       std::max<std::size_t>(std::thread::hardware_concurrency(), 1)});
  if (threads <= 1) {
    for (std::size_t i = 0; i < liveCells.size(); ++i) {
      runCell(i);
    }
  } else {
    util::ThreadPool pool{threads};
    pool.parallelFor(liveCells.size(), runCell);
  }

  // The fold, in cell order on this thread: the one place cells combine.
  // The measured wall time is when the application exits (the slowest rank
  // finishes); background write-back continuing after exit is not part of
  // the benchmark's wall clock — workloads that need the data on stable
  // storage fsync before their final barrier, which is counted.
  result.audit.osts.resize(cl.totalOsts());
  bool allDone = true;
  double wall = 0.0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const CellResult& cell = kept[i];
    result.counters += cell.counters;
    result.audit.foldCell(cell.audit, static_cast<std::size_t>(liveCells[i]) * ostsPerCell);
    result.simEndSeconds = std::max(result.simEndSeconds, cell.end);
    allDone = allDone && cell.finished;
    if (cell.failed && result.outcome == RunOutcome::Ok) {
      result.outcome = RunOutcome::Failed;
      result.failureReason = cell.failureReason;
    }
    wall = std::max(wall, cell.wall);
    // Barriers are cell-scoped; the k-th "global" barrier is effectively
    // released when the last cell releases its k-th barrier.
    if (cell.barrierTimes.size() > result.barrierTimes.size()) {
      result.barrierTimes.resize(cell.barrierTimes.size(), 0.0);
    }
    for (std::size_t b = 0; b < cell.barrierTimes.size(); ++b) {
      result.barrierTimes[b] = std::max(result.barrierTimes[b], cell.barrierTimes[b]);
    }
  }
  if (!allDone) {
    if (!capped) {
      throw std::logic_error(
          "simulation deadlock: event queue drained with ranks blocked (job '" + job.name +
          "')");
    }
    // Watchdog tripped: the measurement is abandoned, and no per-rank,
    // per-file or barrier figure of it is reported.
    result.ranks.clear();
    result.files.clear();
    result.barrierTimes.clear();
    result.outcome = RunOutcome::TimedOut;
    result.failureReason = "simulated time cap of " +
                           std::to_string(limits.maxSimSeconds) +
                           "s exceeded with ranks still running";
    result.wallSeconds = limits.maxSimSeconds;
    result.rawWallSeconds = limits.maxSimSeconds;
  } else {
    result.rawWallSeconds = wall;
    // Run-to-run variance: the paper repeats every case 8x and reports 90%
    // CIs; the multiplicative lognormal reproduces that spread. Noise-spike
    // windows widen sigma by their overlap-weighted excess.
    double sigma = kNoiseSigma;
    if (haveFaults) {
      sigma *= options_.faults->noiseMultiplierOver(wall);
    }
    util::Rng noiseRng{util::mix64(seed, kNoiseTag)};
    result.wallSeconds = wall * noiseRng.lognormalNoise(sigma);
  }

  if (options_.counters != nullptr) {
    publish(*options_.counters, result);
  }
  if (runSpan.active()) {
    runSpan.arg("sim_seconds", util::Json(result.wallSeconds));
    runSpan.arg("data_rpcs", util::Json(static_cast<std::int64_t>(result.counters.dataRpcs)));
    runSpan.arg("meta_rpcs", util::Json(static_cast<std::int64_t>(result.counters.metaRpcs)));
    runSpan.arg("cells", util::Json(static_cast<std::int64_t>(cells)));
    runSpan.arg("workers", util::Json(static_cast<std::int64_t>(threads)));
    runSpan.arg("events", util::Json(static_cast<std::int64_t>(result.counters.events)));
  }
  return result;
}

}  // namespace stellar::pfs
