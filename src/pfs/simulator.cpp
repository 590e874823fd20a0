#include "pfs/simulator.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "faults/fault_injector.hpp"
#include "sim/sharded_engine.hpp"
#include "util/strings.hpp"

namespace stellar::pfs {

namespace {

/// Seed mix tag for the post-run measurement noise stream: one draw per
/// run, whatever the cell count.
constexpr std::uint64_t kNoiseTag = 0x9F0A5EEDULL;

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

double RunResult::aggregateBandwidth() const noexcept {
  if (wallSeconds <= 0.0) {
    return 0.0;
  }
  return (totalBytesRead() + totalBytesWritten()) / wallSeconds;
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

  sim::EngineOptions engineOptions = options_.engine;
  engineOptions.shards = std::clamp<std::uint32_t>(engineOptions.shards, 1, cells);
  sim::ShardedEngine engines{engineOptions};
  engines.attachObservability(options_.tracer, options_.counters);
  const std::size_t shardCount = engines.shardCount();

  // Per-cell fault injectors and runtimes. Cells are assigned to engine
  // shards in contiguous groups; because every stream of randomness is
  // keyed by global ids, the grouping cannot change any cell's results.
  // Each injector is armed before its runtime schedules its start-of-run
  // events, so window edges hold stable FIFO positions against every
  // client/server event — the determinism contract.
  struct CellRun {
    std::uint32_t cell = 0;
    const std::vector<FileId>* localToGlobal = nullptr;  ///< null: ids are global
    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<ClientRuntime> runtime;
  };
  const bool haveFaults = options_.faults != nullptr && !options_.faults->empty();
  std::vector<CellRun> runs;
  runs.reserve(cells);
  for (std::uint32_t c = 0; c < cells; ++c) {
    CellRun run;
    run.cell = c;
    const JobSpec* cellJob = &job;
    if (cells > 1) {
      if (!cellJobs[c]) {
        continue;  // no ranks landed in this cell
      }
      cellJob = &cellJobs[c]->job;
      run.localToGlobal = &cellJobs[c]->localToGlobal;
    }
    sim::SimEngine& engine = engines.shard(static_cast<std::size_t>(c) * shardCount / cells);
    if (haveFaults) {
      run.injector = std::make_unique<faults::FaultInjector>(
          engine, *options_.faults, cl.totalOsts(), seed);
      run.injector->attachObservability(options_.tracer, options_.counters);
      run.injector->arm();
    }
    run.runtime = std::make_unique<ClientRuntime>(
        engine, cellCluster, config, *cellJob, options_.tracer, run.injector.get(),
        RunScope{seed, c * cellCluster.clientNodes, c * ostsPerCell});
    run.runtime->start();
    runs.push_back(std::move(run));
  }

  if (limits.maxSimSeconds > 0.0) {
    (void)engines.runUntil(limits.maxSimSeconds);
  } else {
    (void)engines.run();  // drains trailing background writeout too
  }

  const bool allDone = std::all_of(runs.begin(), runs.end(), [](const CellRun& run) {
    return run.runtime->allRanksDone();
  });
  if (!allDone) {
    if (limits.maxSimSeconds <= 0.0) {
      throw std::logic_error(
          "simulation deadlock: event queue drained with ranks blocked (job '" +
          job.name + "')");
    }
    // Watchdog tripped: the measurement is abandoned, not trusted. Retire
    // still-open fault windows before counters and audits are read, so the
    // injector's window ledger (and any window-scoped effect) resets
    // cleanly before the caller's next measurement.
    engines.cancelOpenWindows();
  }

  RunResult result;
  result.audit.osts.resize(cl.totalOsts());
  for (const CellRun& run : runs) {
    result.counters += run.runtime->counters();
    result.audit.foldCell(run.runtime->audit(),
                          static_cast<std::size_t>(run.cell) * ostsPerCell);
  }
  result.counters.events = engines.eventsProcessed();
  result.simEndSeconds = engines.now();

  if (!allDone) {
    result.outcome = RunOutcome::TimedOut;
    result.failureReason = "simulated time cap of " +
                           std::to_string(limits.maxSimSeconds) +
                           "s exceeded with ranks still running";
    result.wallSeconds = limits.maxSimSeconds;
    result.rawWallSeconds = limits.maxSimSeconds;
  } else {
    // The measured wall time is when the application exits (the slowest
    // rank finishes); background write-back continuing after exit is not
    // part of the benchmark's wall clock — workloads that need the data on
    // stable storage fsync before their final barrier, which is counted.
    double wall = 0.0;
    result.files.resize(job.files.size());
    result.ranks.resize(job.rankCount());
    for (const CellRun& run : runs) {
      if (run.runtime->failed() && result.outcome == RunOutcome::Ok) {
        result.outcome = RunOutcome::Failed;
        result.failureReason = run.runtime->failureReason();
      }
      const std::vector<RankStats>& rs = run.runtime->rankStats();
      const std::size_t rankOffset = static_cast<std::size_t>(run.cell) * cl.ranksPerCell();
      for (std::size_t i = 0; i < rs.size(); ++i) {
        result.ranks[rankOffset + i] = rs[i];
        wall = std::max(wall, rs[i].finishTime);
      }
      const std::vector<FileStats>& fsv = run.runtime->fileStats();
      for (std::size_t i = 0; i < fsv.size(); ++i) {
        result.files[run.localToGlobal != nullptr ? (*run.localToGlobal)[i] : i] = fsv[i];
      }
      // Barriers are cell-scoped; the k-th "global" barrier is effectively
      // released when the last cell releases its k-th barrier.
      const std::vector<double>& bt = run.runtime->barrierTimes();
      if (bt.size() > result.barrierTimes.size()) {
        result.barrierTimes.resize(bt.size(), 0.0);
      }
      for (std::size_t i = 0; i < bt.size(); ++i) {
        result.barrierTimes[i] = std::max(result.barrierTimes[i], bt[i]);
      }
    }
    result.rawWallSeconds = wall;
    // Run-to-run variance: the paper repeats every case 8x and reports 90%
    // CIs; the multiplicative lognormal reproduces that spread. Noise-spike
    // windows widen sigma by their overlap-weighted excess;
    // noiseMultiplierOver is a pure function of the shared plan, so any
    // cell's injector gives the same answer.
    double sigma = options_.noiseSigma;
    if (!runs.empty() && runs.front().injector) {
      sigma *= runs.front().injector->noiseMultiplierOver(wall);
    }
    util::Rng noiseRng{util::mix64(seed, kNoiseTag)};
    result.wallSeconds = wall * noiseRng.lognormalNoise(sigma);
  }

  if (options_.counters != nullptr) {
    for (const CellRun& run : runs) {
      run.runtime->flushObservability(*options_.counters);
    }
  }
  if (runSpan.active()) {
    runSpan.arg("sim_seconds", util::Json(result.wallSeconds));
    runSpan.arg("data_rpcs", util::Json(static_cast<std::int64_t>(result.counters.dataRpcs)));
    runSpan.arg("meta_rpcs", util::Json(static_cast<std::int64_t>(result.counters.metaRpcs)));
    runSpan.arg("cells", util::Json(static_cast<std::int64_t>(cells)));
    runSpan.arg("shards", util::Json(static_cast<std::int64_t>(shardCount)));
    runSpan.arg("events", util::Json(static_cast<std::int64_t>(result.counters.events)));
  }
  return result;
}

}  // namespace stellar::pfs
