// Experiment harness: the paper's measurement protocol — every case runs
// eight times (fresh file system each run, implicit in the simulator) and
// figures report means with 90% confidence intervals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "pfs/simulator.hpp"
#include "util/stats.hpp"

namespace stellar::core {

/// Outlier-robust aggregation of repeat samples. The mean of eight runs is
/// what the paper plots, but a single pathological repeat (fault window,
/// noise spike) can drag it arbitrarily; the median and trimmed mean stay
/// put, and `unstable` flags spreads too wide to trust either way.
struct RobustAggregate {
  util::Summary summary;             ///< plain mean/CI over the samples
  double medianSeconds = 0.0;
  double trimmedMeanSeconds = 0.0;
  double cv = 0.0;                   ///< coefficient of variation
  bool unstable = false;             ///< cv exceeded the caller's threshold
};

[[nodiscard]] RobustAggregate robustAggregate(std::span<const double> samples,
                                              double trimFraction,
                                              double cvThreshold);

struct RepeatedMeasure {
  util::Summary summary;             ///< over successful repeats only
  std::vector<double> samples;       ///< wall seconds of successful repeats
  double medianSeconds = 0.0;
  double trimmedMeanSeconds = 0.0;
  /// Repeats that ended with outcome != Ok (retry budget exhausted or
  /// watchdog cap); their wall times are excluded from every aggregate.
  std::size_t failedRuns = 0;
  /// True when the successful samples' coefficient of variation exceeds
  /// 0.25 — the measurement should not be trusted as a point estimate.
  bool unstable = false;

  /// At least one usable sample and no failed repeats.
  [[nodiscard]] bool clean() const noexcept {
    return failedRuns == 0 && !samples.empty();
  }
};

/// Named-field options for measureConfig, built for designated
/// initializers: measureConfig(sim, job, cfg, {.repeats = 4, .seedBase = 77}).
struct MeasureOptions {
  /// Independent runs (the paper's protocol repeats every case 8x).
  std::size_t repeats = 8;
  std::uint64_t seedBase = 1000;
  /// Watchdog: simulated-seconds cap per repeat (0 = unlimited). A repeat
  /// that hits the cap counts toward failedRuns instead of the samples.
  double simTimeCapSeconds = 0.0;
};

/// Runs `job` under `config` options.repeats times with distinct seeds;
/// repeats execute in parallel (each simulation is independent and
/// deterministic). Each repeat is traced as a "harness" span when the
/// simulator carries a tracer. Failed or timed-out repeats are counted,
/// not mixed into the statistics.
[[nodiscard]] RepeatedMeasure measureConfig(const pfs::PfsSimulator& simulator,
                                            const pfs::JobSpec& job,
                                            const pfs::PfsConfig& config,
                                            const MeasureOptions& options = {});

/// A full STELLAR evaluation of one workload: `repeats` independent tuning
/// runs (per the paper's averaging), each with its own seed. Rule-set state
/// is NOT shared across the repeats — pass `globalRules` explicitly for the
/// accumulation scenarios.
struct TuningEvaluation {
  std::vector<TuningRunResult> runs;

  /// Mean/CI of the best-configuration wall time across runs.
  [[nodiscard]] util::Summary bestSummary() const;
  /// Mean/CI of the default wall time across runs.
  [[nodiscard]] util::Summary defaultSummary() const;
  /// Mean speedup of iteration k over the default (Figs. 6/7 series);
  /// runs that ended before iteration k contribute their final value.
  [[nodiscard]] std::vector<double> meanIterationSpeedups() const;
  [[nodiscard]] double meanAttempts() const;
};

/// Named-field options for evaluateTuning:
/// evaluateTuning(sim, opts, job, {.repeats = 3, .globalRules = &set}).
struct EvalOptions {
  /// Independent tuning runs to average over.
  std::size_t repeats = 8;
  /// Seed rule set; copied per run (accumulation scenarios thread one
  /// RuleSet through sequential calls instead). Not owned.
  const rules::RuleSet* globalRules = nullptr;
};

[[nodiscard]] TuningEvaluation evaluateTuning(const pfs::PfsSimulator& simulator,
                                              const StellarOptions& options,
                                              const pfs::JobSpec& job,
                                              const EvalOptions& evalOptions = {});

}  // namespace stellar::core
