// PfsSimulator: the run(job, config, seed) facade the rest of the system
// (tuning engine, baselines, benches) uses. One call simulates a complete
// application execution on a freshly mounted file system — the paper's
// between-runs hygiene (delete data, drop caches, remount, settle) is
// implicit because every run constructs fresh state.
//
// Every run takes one path: split the job into the cluster's cells, run
// each cell start to finish in one task (its own engine, fault injector and
// ClientRuntime, built and destroyed inside the task), then fold the cells'
// kept results in cell order into one RunResult on the calling thread. The
// classic single-filesystem testbed is the one-cell case: its cell runs the
// caller's job as given, inline.
#pragma once

#include <cstdint>
#include <utility>

#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "pfs/client.hpp"
#include "pfs/job.hpp"
#include "pfs/params.hpp"
#include "pfs/topology.hpp"

namespace stellar::pfs {

/// How a run ended. Anything but Ok means wallSeconds is not a valid
/// measurement of the configuration (the paper's bad-signal case the
/// tuning loop must survive).
enum class RunOutcome : std::uint8_t {
  Ok,        ///< application finished normally
  Failed,    ///< an RPC exhausted its retry budget mid-run
  TimedOut,  ///< simulated-time cap hit with ranks still running
};

[[nodiscard]] const char* runOutcomeName(RunOutcome outcome) noexcept;

/// Everything a run produces. `wallSeconds` includes the multiplicative
/// run-to-run noise; `rawWallSeconds` is the noise-free simulated time
/// (useful for calibration tests).
struct RunResult {
  double wallSeconds = 0.0;
  double rawWallSeconds = 0.0;
  std::vector<FileStats> files;
  std::vector<RankStats> ranks;
  RunCounters counters;
  /// Release time of each global barrier: consecutive differences are the
  /// durations of a multi-phase workload's phases (IO500-style reporting).
  std::vector<double> barrierTimes;
  RunOutcome outcome = RunOutcome::Ok;
  /// Human-readable cause when outcome != Ok.
  std::string failureReason;
  /// Simulated time at which the event queue drained (>= rawWallSeconds:
  /// background flushes keep servers busy after the last rank finishes).
  double simEndSeconds = 0.0;
  /// End-of-run internals snapshot for the invariant checker (src/testkit).
  RunAudit audit;

  [[nodiscard]] bool ok() const noexcept { return outcome == RunOutcome::Ok; }

  /// Aggregate convenience metrics.
  [[nodiscard]] double totalBytesRead() const noexcept;
  [[nodiscard]] double totalBytesWritten() const noexcept;
};

/// Per-run execution bounds (the measurement watchdog's knob).
struct RunLimits {
  /// Simulated-seconds cap; 0 = unlimited. A capped run whose ranks are
  /// still blocked at the cap returns RunOutcome::TimedOut.
  double maxSimSeconds = 0.0;
};

/// Aggregate construction surface for PfsSimulator — designed for
/// designated initializers:
///
///   PfsSimulator sim{{.cluster = myCluster(), .tracer = &tracer}};
///
/// `tracer` and `counters` are nullable, non-owning observability sinks
/// shared by every run of this simulator (and by the tuning engine and
/// harness built on top of it). Both must outlive the simulator.
struct SimulatorOptions {
  ClusterSpec cluster = defaultCluster();
  obs::Tracer* tracer = nullptr;
  obs::CounterRegistry* counters = nullptr;
  /// Deterministic fault plan applied to every run (nullable, non-owning;
  /// must outlive the simulator). Null or empty = fault-free: runs are
  /// bit-identical to a simulator without the faults layer.
  const faults::FaultPlan* faults = nullptr;
  /// Threads that run a federated cluster's cells (cluster.cells > 1),
  /// capped at the cell and core counts; 1 runs them inline in cell
  /// order. At most this many cells are alive at once. Results are
  /// bit-identical for any value; only wall-clock time changes.
  std::uint32_t workers = 1;
};

class PfsSimulator {
 public:
  PfsSimulator() : PfsSimulator(SimulatorOptions{}) {}
  explicit PfsSimulator(SimulatorOptions options) : options_(std::move(options)) {}

  [[nodiscard]] const ClusterSpec& cluster() const noexcept { return options_.cluster; }
  [[nodiscard]] const SimulatorOptions& options() const noexcept { return options_; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return options_.tracer; }
  [[nodiscard]] obs::CounterRegistry* counters() const noexcept {
    return options_.counters;
  }

  /// Bounds context for validating configs against this cluster.
  [[nodiscard]] BoundsContext boundsContext() const noexcept;

  /// Simulates one complete run. Throws std::invalid_argument when the
  /// config is out of range (the same failure the paper reports when the
  /// agent proposes invalid values), the job is malformed (including a
  /// file touched from two cells), or the cell count does not divide the
  /// cluster's client and OSS nodes. Fault-induced failures do NOT throw:
  /// they come back as outcome != Ok. A run whose event queues drain with
  /// ranks still blocked throws std::logic_error naming the job.
  /// Bit-identical for any worker count, because cells never interact,
  /// all randomness is keyed by global component ids, and the cells'
  /// results are folded in cell order.
  [[nodiscard]] RunResult run(const JobSpec& job, const PfsConfig& config,
                              std::uint64_t seed) const {
    return run(job, config, seed, RunLimits{});
  }

  /// As above with execution bounds (see RunLimits).
  [[nodiscard]] RunResult run(const JobSpec& job, const PfsConfig& config,
                              std::uint64_t seed, const RunLimits& limits) const;

 private:
  SimulatorOptions options_;
};

}  // namespace stellar::pfs
