#include "core/harness.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace stellar::core {

namespace {

/// measureConfig's aggregation: the fraction trimmed from each end for
/// trimmedMeanSeconds (one of eight repeats), and the coefficient of
/// variation above which a measure is `unstable`.
constexpr double kTrimFraction = 0.125;
constexpr double kUnstableCvThreshold = 0.25;

}  // namespace

RobustAggregate robustAggregate(std::span<const double> samples, double trimFraction,
                                double cvThreshold) {
  RobustAggregate agg;
  agg.summary = util::summarize(samples);
  const std::vector<double> copy{samples.begin(), samples.end()};
  agg.medianSeconds = util::median(copy);
  agg.trimmedMeanSeconds = util::trimmedMean(copy, trimFraction);
  agg.cv = util::coefficientOfVariation(samples);
  agg.unstable = cvThreshold > 0.0 && agg.cv > cvThreshold;
  return agg;
}

RepeatedMeasure measureConfig(const pfs::PfsSimulator& simulator, const pfs::JobSpec& job,
                              const pfs::PfsConfig& config,
                              const MeasureOptions& options) {
  // Repeats land in fixed slots so aggregation order never depends on
  // thread scheduling; failures are marked out-of-band.
  std::vector<double> seconds(options.repeats, 0.0);
  std::vector<std::uint8_t> succeeded(options.repeats, 0);
  const pfs::RunLimits limits{options.simTimeCapSeconds};
  util::ThreadPool pool;
  pool.parallelFor(options.repeats, [&](std::size_t i) {
    obs::Tracer::Span span = obs::beginSpan(simulator.tracer(), "harness",
                                            "repeat:" + std::to_string(i));
    const pfs::RunResult run =
        simulator.run(job, config, util::mix64(options.seedBase, i), limits);
    seconds[i] = run.wallSeconds;
    succeeded[i] = run.ok() ? 1 : 0;
    span.arg("seconds", util::Json(run.wallSeconds));
    span.arg("outcome", util::Json(pfs::runOutcomeName(run.outcome)));
  });

  RepeatedMeasure measure;
  measure.samples.reserve(options.repeats);
  for (std::size_t i = 0; i < options.repeats; ++i) {
    if (succeeded[i] != 0) {
      measure.samples.push_back(seconds[i]);
    } else {
      ++measure.failedRuns;
    }
  }
  const RobustAggregate agg =
      robustAggregate(measure.samples, kTrimFraction, kUnstableCvThreshold);
  measure.summary = agg.summary;
  measure.medianSeconds = agg.medianSeconds;
  measure.trimmedMeanSeconds = agg.trimmedMeanSeconds;
  measure.unstable = agg.unstable;
  if (simulator.counters() != nullptr) {
    simulator.counters()->counter("harness.failed_runs")
        .add(static_cast<double>(measure.failedRuns));
    if (measure.unstable) {
      simulator.counters()->counter("harness.unstable_measures").add();
    }
  }
  return measure;
}

util::Summary TuningEvaluation::bestSummary() const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const TuningRunResult& run : runs) {
    xs.push_back(run.bestSeconds);
  }
  return util::summarize(xs);
}

util::Summary TuningEvaluation::defaultSummary() const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const TuningRunResult& run : runs) {
    xs.push_back(run.defaultSeconds);
  }
  return util::summarize(xs);
}

std::vector<double> TuningEvaluation::meanIterationSpeedups() const {
  std::size_t maxIters = 0;
  for (const TuningRunResult& run : runs) {
    maxIters = std::max(maxIters, run.iterationSeconds.size());
  }
  std::vector<double> speedups;
  for (std::size_t k = 0; k < maxIters; ++k) {
    double total = 0.0;
    for (const TuningRunResult& run : runs) {
      // Runs that ended earlier hold their best-so-far value; speedup of
      // iteration k is default/bestUpToK (the paper's per-iteration plots
      // track the best configuration found so far).
      double bestUpToK = run.iterationSeconds.front();
      for (std::size_t i = 1; i <= k && i < run.iterationSeconds.size(); ++i) {
        bestUpToK = std::min(bestUpToK, run.iterationSeconds[i]);
      }
      if (k >= run.iterationSeconds.size()) {
        bestUpToK = std::min(bestUpToK, run.bestSeconds);
      }
      total += run.defaultSeconds / bestUpToK;
    }
    speedups.push_back(total / static_cast<double>(runs.size()));
  }
  return speedups;
}

double TuningEvaluation::meanAttempts() const {
  if (runs.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const TuningRunResult& run : runs) {
    total += static_cast<double>(run.attempts.size());
  }
  return total / static_cast<double>(runs.size());
}

TuningEvaluation evaluateTuning(const pfs::PfsSimulator& simulator,
                                const StellarOptions& options, const pfs::JobSpec& job,
                                const EvalOptions& evalOptions) {
  TuningEvaluation evaluation;
  evaluation.runs.resize(evalOptions.repeats);
  util::ThreadPool pool;
  pool.parallelFor(evalOptions.repeats, [&](std::size_t i) {
    obs::Tracer::Span span = obs::beginSpan(simulator.tracer(), "harness",
                                            "tuning-repeat:" + std::to_string(i));
    StellarOptions perRun = options;
    perRun.seed = util::mix64(options.seed, 0xE0A1 + i);
    perRun.agent.seed = perRun.seed;
    StellarEngine engine{simulator, perRun};
    if (evalOptions.globalRules != nullptr) {
      // Copy so concurrent runs cannot mutate the shared set; accumulation
      // scenarios thread a single RuleSet through sequential calls instead.
      rules::RuleSet localRules = *evalOptions.globalRules;
      evaluation.runs[i] = engine.tune(job, &localRules);
    } else {
      evaluation.runs[i] = engine.tune(job, nullptr);
    }
    span.arg("best_seconds", util::Json(evaluation.runs[i].bestSeconds));
  });
  return evaluation;
}

}  // namespace stellar::core
