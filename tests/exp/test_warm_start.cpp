// Engine-level warm-start behaviour: recall primes the first attempt,
// dissimilar workloads never recall, and a misleading recalled config is
// judged regressed (the run's staleness verdict) while the run still
// recovers.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/experience_store.hpp"
#include "pfs/simulator.hpp"
#include "workloads/workloads.hpp"

namespace stellar::exp {
namespace {

core::TuningRunResult tuneOnce(const std::string& workload, std::uint64_t seed,
                               const core::WarmStartProvider* provider) {
  pfs::PfsSimulator simulator;
  core::StellarOptions options;
  options.seed = seed;
  options.agent.seed = seed;
  options.warmStart = provider;
  core::StellarEngine engine{simulator, options};
  return engine.tune(
      workloads::byName(workload, {.ranks = 50, .scale = 0.05, .seed = seed}));
}

TEST(WarmStart, RecallPrimesTheFirstAttempt) {
  ExperienceStore store{"", {}};
  const core::TuningRunResult cold = tuneOnce("IO500", 1, nullptr);
  const std::string id =
      store.absorb({recordFromRun(cold, 1, "claude-3.7-sonnet", "")}).front();

  const core::TuningRunResult warm = tuneOnce("IO500", 2, &store);
  ASSERT_TRUE(warm.warmStarted);
  EXPECT_GE(warm.warmStartSimilarity, 0.95);
  ASSERT_EQ(warm.warmStartSources, std::vector<std::string>{id});
  ASSERT_FALSE(warm.attempts.empty());
  EXPECT_TRUE(warm.attempts[0].warmStart);
  // The recalled best for a near-identical workload must not regress, so
  // the run's verdict never penalizes it here, not even once filed.
  EXPECT_NE(warm.warmStartVerdict, core::WarmStartVerdict::Regressed);
  (void)store.absorb({recordFromRun(warm, 2, "claude-3.7-sonnet", "")});
  ASSERT_EQ(store.size(), 2U);
  EXPECT_EQ(store.records()[0].id, id);
  EXPECT_EQ(store.records()[0].regressions, 0);
  // And the warm run is at least as good as its own default.
  EXPECT_LE(warm.bestSeconds, warm.defaultSeconds);
}

TEST(WarmStart, DissimilarWorkloadRecallsNothingAndLosesNothing) {
  ExperienceStore store{"", {}};
  const core::TuningRunResult donor = tuneOnce("IO500", 1, nullptr);
  (void)store.absorb({recordFromRun(donor, 1, "claude-3.7-sonnet", "")});

  const core::TuningRunResult cold = tuneOnce("MDWorkbench_8K", 5, nullptr);
  const core::TuningRunResult warm = tuneOnce("MDWorkbench_8K", 5, &store);
  EXPECT_FALSE(warm.warmStarted);
  // No recall means the trajectory is bit-identical to a cold run.
  EXPECT_EQ(warm.bestSeconds, cold.bestSeconds);
  EXPECT_EQ(warm.bestConfig, cold.bestConfig);
  EXPECT_EQ(warm.attempts.size(), cold.attempts.size());
}

/// Provider that recalls a deliberately throttled configuration, to drive
/// the engine's regression verdict.
class MisleadingProvider final : public core::WarmStartProvider {
 public:
  [[nodiscard]] std::optional<core::WarmStartHint> warmStart(
      const agents::IoReport&) const override {
    core::WarmStartHint hint;
    // Strangle concurrency and read-ahead: clearly worse than the default
    // for a bandwidth-bound workload, but still within valid bounds.
    EXPECT_TRUE(hint.config.set("osc.max_rpcs_in_flight", 1));
    EXPECT_TRUE(hint.config.set("osc.max_pages_per_rpc", 64));
    EXPECT_TRUE(hint.config.set("llite.max_read_ahead_mb", 1));
    EXPECT_TRUE(hint.config.set("llite.max_read_ahead_per_file_mb", 1));
    hint.sourceIds = {"bad-memory"};
    hint.similarity = 0.99;
    hint.provenance = "test";
    return hint;
  }
};

TEST(WarmStart, MisleadingRecallIsPenalizedAndTheRunRecovers) {
  MisleadingProvider provider;
  const core::TuningRunResult run = tuneOnce("IOR_16M", 3, &provider);
  ASSERT_TRUE(run.warmStarted);
  ASSERT_FALSE(run.attempts.empty());
  EXPECT_TRUE(run.attempts[0].warmStart);
  EXPECT_EQ(run.warmStartSources, std::vector<std::string>{"bad-memory"});
  EXPECT_EQ(run.warmStartVerdict, core::WarmStartVerdict::Regressed);
  // The verdict travels to the memory inside the run's record.
  const ExperienceRecord record = recordFromRun(run, 3, "claude-3.7-sonnet", "");
  EXPECT_EQ(record.recallVerdict, core::WarmStartVerdict::Regressed);
  EXPECT_EQ(record.recalledIds, std::vector<std::string>{"bad-memory"});
  // The agent reverts the regression and still ends at/below the default.
  EXPECT_LE(run.bestSeconds, run.defaultSeconds);
}

TEST(WarmStart, IterationsToWithinCountsValidAttemptsOnly) {
  core::TuningRunResult run;
  run.bestSeconds = 1.0;
  agents::Attempt a1;
  a1.seconds = 2.0;
  agents::Attempt a2;
  a2.seconds = 1.2;
  agents::Attempt bad;
  bad.seconds = 0.5;  // would win, but the measurement failed
  bad.measurementFailed = true;
  agents::Attempt a3;
  a3.seconds = 1.0;
  run.attempts = {a1, a2, bad, a3};

  EXPECT_EQ(run.iterationsToWithin(0.05), 4U);        // vs own best (1.0)
  EXPECT_EQ(run.iterationsToWithin(0.25), 2U);        // 1.2 within 25%
  EXPECT_EQ(run.iterationsToWithin(0.05, 1.2), 2U);   // explicit target
  EXPECT_EQ(run.iterationsToWithin(0.05, 0.1), 5U);   // never: attempts+1
}

}  // namespace
}  // namespace stellar::exp
