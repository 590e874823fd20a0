// Measurement resilience: outlier-robust aggregation, the repeat-level
// watchdog and failure accounting in measureConfig, and the engine's
// handling of measurements that cannot be trusted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "core/harness.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/workloads.hpp"

namespace stellar::core {
namespace {

workloads::WorkloadOptions tinyOpts() {
  workloads::WorkloadOptions opt;
  opt.ranks = 10;
  opt.scale = 0.02;
  return opt;
}

StellarOptions defaultOptions(std::uint64_t seed = 5) {
  StellarOptions options;
  options.seed = seed;
  options.agent.seed = seed;
  return options;
}

TEST(RobustAggregate, PlantedOutlierMovesMeanButNotMedianOrTrimmedMean) {
  const std::vector<double> samples = {9.9, 9.95, 9.98, 10.0, 10.02, 10.05, 10.1, 100.0};
  const RobustAggregate agg = robustAggregate(samples, 0.125, 0.25);
  EXPECT_GT(agg.summary.mean, 20.0);  // mean wrecked by the outlier
  EXPECT_NEAR(agg.medianSeconds, 10.01, 0.02);
  EXPECT_NEAR(agg.trimmedMeanSeconds, 10.0, 0.1);  // 12.5% trim drops it
  EXPECT_TRUE(agg.unstable);  // spread this wide must be flagged
}

TEST(RobustAggregate, TightSamplesAreStable) {
  const std::vector<double> samples = {10.0, 10.01, 9.99, 10.0, 10.02, 9.98};
  const RobustAggregate agg = robustAggregate(samples, 0.125, 0.25);
  EXPECT_FALSE(agg.unstable);
  EXPECT_NEAR(agg.medianSeconds, 10.0, 0.01);
  EXPECT_NEAR(agg.trimmedMeanSeconds, agg.summary.mean, 0.05);
}

TEST(RobustAggregate, ZeroThresholdDisablesTheUnstableFlag) {
  const std::vector<double> wild = {1.0, 100.0, 1.0, 100.0};
  EXPECT_FALSE(robustAggregate(wild, 0.0, 0.0).unstable);
  EXPECT_TRUE(robustAggregate(wild, 0.0, 0.25).unstable);
}

TEST(MeasureConfig, HealthyRepeatsAreClean) {
  const pfs::PfsSimulator sim;
  const pfs::JobSpec job = workloads::ior16m(tinyOpts());
  const RepeatedMeasure m = measureConfig(sim, job, pfs::PfsConfig{}, {.repeats = 4});
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(m.samples.size(), 4u);
  EXPECT_EQ(m.failedRuns, 0u);
  EXPECT_GT(m.medianSeconds, 0.0);
  EXPECT_GT(m.trimmedMeanSeconds, 0.0);
  EXPECT_EQ(m.summary.n, 4u);
}

TEST(MeasureConfig, FailedRepeatsAreCountedNotMixedIn) {
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:outage@0-1e7");
  const pfs::PfsSimulator sim{{.faults = &plan}};
  const pfs::JobSpec job = workloads::ior16m(tinyOpts());
  const RepeatedMeasure m = measureConfig(sim, job, pfs::PfsConfig{}, {.repeats = 3});
  EXPECT_FALSE(m.clean());
  EXPECT_EQ(m.failedRuns, 3u);
  EXPECT_TRUE(m.samples.empty());
  EXPECT_EQ(m.summary.n, 0u);
  EXPECT_DOUBLE_EQ(m.medianSeconds, 0.0);
}

TEST(MeasureConfig, WatchdogCountsTimedOutRepeats) {
  // Every delivery stalls +1000 s: no repeat can finish under a 5 s cap.
  const faults::FaultPlan plan = faults::parseFaultSpec("rpc:stall:1000@0-1e7");
  const pfs::PfsSimulator sim{{.faults = &plan}};
  const pfs::JobSpec job = workloads::ior16m(tinyOpts());
  const RepeatedMeasure m = measureConfig(
      sim, job, pfs::PfsConfig{}, {.repeats = 2, .simTimeCapSeconds = 5.0});
  EXPECT_EQ(m.failedRuns, 2u);
  EXPECT_TRUE(m.samples.empty());
}

TEST(StellarEngine, AbortsCleanlyWhenBaselineCannotBeMeasured) {
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:outage@0-1e7");
  pfs::PfsSimulator sim{{.faults = &plan}};
  StellarEngine engine{sim, defaultOptions()};
  const TuningRunResult run = engine.tune(workloads::ior16m(tinyOpts()));

  EXPECT_NE(run.endReason.find("initial measurement failed"), std::string::npos);
  EXPECT_TRUE(run.attempts.empty());
  EXPECT_TRUE(run.iterationSeconds.empty());
  EXPECT_DOUBLE_EQ(run.bestSeconds, 0.0);  // never pretended to have a best
  EXPECT_EQ(run.bestConfig, pfs::PfsConfig{});
}

TEST(StellarEngine, FailedMeasurementsNeverBecomeBest) {
  // Heavy random drop: individual measurement runs fail or succeed
  // deterministically per seed, mixing both outcomes across the tune.
  const faults::FaultPlan plan = faults::parseFaultSpec("rpc:drop:0.5@0-1e7,seed:4");
  pfs::PfsSimulator sim{{.faults = &plan}};
  StellarEngine engine{sim, defaultOptions(11)};
  const TuningRunResult run = engine.tune(workloads::ior16m(tinyOpts()));

  if (run.iterationSeconds.empty()) {
    // Even the re-measured baseline failed; the abort path already ran.
    EXPECT_NE(run.endReason.find("initial measurement failed"), std::string::npos);
    return;
  }
  // Invariant: bestSeconds is either the default baseline or the wall time
  // of a successfully measured, valid attempt — never a failed one.
  std::vector<double> candidates = {run.defaultSeconds};
  for (const agents::Attempt& attempt : run.attempts) {
    if (attempt.valid && !attempt.measurementFailed) {
      candidates.push_back(attempt.seconds);
    }
    if (attempt.measurementFailed) {
      EXPECT_FALSE(attempt.error.empty());
    }
  }
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), run.bestSeconds),
            candidates.end());
  EXPECT_LE(run.bestSeconds, run.defaultSeconds);
  // A skipped attempt repeats the previous iteration's wall time, so the
  // iteration axis stays aligned with the attempt list.
  EXPECT_EQ(run.iterationSeconds.size(), run.attempts.size() + 1);
}

TEST(StellarEngine, WatchdogOptionCapsEveryMeasurement) {
  const faults::FaultPlan plan = faults::parseFaultSpec("rpc:stall:1000@0-1e7");
  pfs::PfsSimulator sim{{.faults = &plan}};
  StellarOptions options = defaultOptions();
  options.maxSimSecondsPerRun = 5.0;
  StellarEngine engine{sim, options};
  const TuningRunResult run = engine.tune(workloads::ior16m(tinyOpts()));
  EXPECT_NE(run.endReason.find("initial measurement failed"), std::string::npos);
  EXPECT_NE(run.endReason.find("cap"), std::string::npos);
}

// --------------------------------------- robustAggregate edge cases ------

TEST(RobustAggregate, AllFailedRepeatsYieldAnEmptyButSaneAggregate) {
  // Every repeat failed: measureConfig hands robustAggregate an empty
  // sample set and the aggregate must stay inert, not NaN or throw.
  const RobustAggregate agg = robustAggregate({}, 0.125, 0.25);
  EXPECT_EQ(agg.summary.n, 0u);
  EXPECT_DOUBLE_EQ(agg.medianSeconds, 0.0);
  EXPECT_DOUBLE_EQ(agg.trimmedMeanSeconds, 0.0);
  EXPECT_DOUBLE_EQ(agg.cv, 0.0);
  EXPECT_FALSE(agg.unstable);
}

TEST(RobustAggregate, SingleSampleIsItsOwnAggregate) {
  const std::vector<double> one = {12.5};
  const RobustAggregate agg = robustAggregate(one, 0.125, 0.25);
  EXPECT_DOUBLE_EQ(agg.medianSeconds, 12.5);
  EXPECT_DOUBLE_EQ(agg.trimmedMeanSeconds, 12.5);
  EXPECT_DOUBLE_EQ(agg.summary.mean, 12.5);
  EXPECT_FALSE(agg.unstable);  // no spread to judge from one sample
}

TEST(RobustAggregate, NanSampleCannotPoisonTheTrimmedMean) {
  const std::vector<double> samples = {10.0, std::nan(""), 10.2, 9.8};
  const RobustAggregate agg = robustAggregate(samples, 0.0, 0.0);
  EXPECT_FALSE(std::isnan(agg.trimmedMeanSeconds));
  EXPECT_NEAR(agg.trimmedMeanSeconds, 10.0, 1e-9);
}

// ------------------------------- warm start under fault + RunLimits ------

/// Provider that always recalls a valid but throttled configuration, so
/// warm start engages without needing a pre-populated experience store.
class ThrottledRecall final : public WarmStartProvider {
 public:
  [[nodiscard]] std::optional<WarmStartHint> warmStart(
      const agents::IoReport&) const override {
    WarmStartHint hint;
    EXPECT_TRUE(hint.config.set("osc.max_rpcs_in_flight", 2));
    EXPECT_TRUE(hint.config.set("osc.max_pages_per_rpc", 128));
    hint.sourceIds = {"recalled"};
    hint.similarity = 0.99;
    hint.provenance = "test";
    return hint;
  }
};

TEST(StellarEngine, WarmStartedRunUnderFaultStillHonorsRunLimits) {
  // A degraded OST slows everything; the watchdog cap must still bound
  // every measurement of the warm-started trajectory, and a capped repeat
  // must surface as a failed measurement, never as a best config.
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:degrade:0.4@0-1e7");
  pfs::PfsSimulator sim{{.faults = &plan}};
  ThrottledRecall provider;
  StellarOptions options = defaultOptions(17);
  options.maxSimSecondsPerRun = 120.0;  // generous: the baseline completes
  options.warmStart = &provider;
  StellarEngine engine{sim, options};
  const TuningRunResult run = engine.tune(workloads::ior16m(tinyOpts()));

  ASSERT_TRUE(run.warmStarted);
  ASSERT_FALSE(run.attempts.empty());
  EXPECT_TRUE(run.attempts[0].warmStart);
  // Every successfully measured wall time respected the simulated cap.
  EXPECT_LT(run.defaultSeconds, options.maxSimSecondsPerRun);
  for (const agents::Attempt& attempt : run.attempts) {
    if (attempt.valid && !attempt.measurementFailed) {
      EXPECT_LT(attempt.seconds, options.maxSimSecondsPerRun);
    }
  }
  EXPECT_LE(run.bestSeconds, run.defaultSeconds);

  // Same fault, same warm start, but a cap tighter than the baseline: the
  // run must abort through the watchdog path instead of hanging or
  // returning a fabricated best.
  StellarOptions tight = defaultOptions(17);
  tight.maxSimSecondsPerRun = 0.05;
  tight.warmStart = &provider;
  StellarEngine cappedEngine{sim, tight};
  const TuningRunResult capped = cappedEngine.tune(workloads::ior16m(tinyOpts()));
  EXPECT_NE(capped.endReason.find("initial measurement failed"), std::string::npos);
  EXPECT_TRUE(capped.attempts.empty());
  EXPECT_DOUBLE_EQ(capped.bestSeconds, 0.0);
}

}  // namespace
}  // namespace stellar::core
