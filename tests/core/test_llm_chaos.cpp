// Agent-layer chaos (ISSUE 7): the resilience ladder under the canned LLM
// fault scenarios, clean-path bit-identity of the chaos machinery, and the
// KILL-RESUME metamorphic law — an interrupted-and-resumed journaled
// session must land on a bit-identical final transcript and configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/engine.hpp"
#include "core/session_journal.hpp"
#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "pfs/simulator.hpp"
#include "rules/rules.hpp"
#include "workloads/workloads.hpp"

namespace stellar::core {
namespace {

workloads::WorkloadOptions benchLikeOpts() {
  workloads::WorkloadOptions opt;
  opt.ranks = 50;
  opt.scale = 0.05;
  return opt;
}

StellarOptions chaosOptions() {
  StellarOptions options;
  options.seed = 42;
  options.agent.seed = 42;
  options.sanitizer = agents::SanitizerMode::Enforce;
  return options;
}

TuningRunResult tuneUnderScenario(const std::string& scenario,
                                  obs::CounterRegistry* registry,
                                  StellarOptions options = chaosOptions()) {
  const faults::FaultPlan plan = faults::scenarioByName(scenario);
  pfs::PfsSimulator simulator{{.counters = registry, .faults = &plan}};
  StellarEngine engine{simulator, options};
  return engine.tune(workloads::byName("IOR_16M", benchLikeOpts()));
}

std::string journalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "chaos_" + name + ".jsonl";
  (void)std::remove(path.c_str());
  return path;
}

// ---- Ladder rungs per scenario ------------------------------------------

TEST(LlmChaos, FlakyLlmStaysOnPrimaryRung) {
  obs::CounterRegistry registry;
  const TuningRunResult run = tuneUnderScenario("flaky-llm", &registry);

  // Retries absorb the transient faults: the ladder never escalates.
  EXPECT_EQ(run.resilienceRung, "primary");
  EXPECT_GT(run.resilience.llmWastedAttempts, 0u);
  EXPECT_LT(run.bestSeconds, run.defaultSeconds);
  // The content faults fired and the Enforce sanitizer contained them:
  // nothing invalid ever reached the simulator.
  EXPECT_GT(run.resilience.sanitizerIssues, 0u);
  EXPECT_EQ(registry.counter("pfs.sim.config_rejected").value(), 0.0);
}

TEST(LlmChaos, DegradingLlmFallsBackToSecondaryModel) {
  obs::CounterRegistry registry;
  const TuningRunResult run = tuneUnderScenario("degrading-llm", &registry);

  // The primary (claude) model hard-fails from call 2 on: its breaker trips
  // and the ladder swaps in the fallback model, which finishes the session.
  EXPECT_EQ(run.resilienceRung, "fallback-model");
  EXPECT_GE(run.resilience.breakerTrips, 1u);
  EXPECT_GT(run.resilience.llmFailedCalls, 0u);
  EXPECT_LT(run.bestSeconds, run.defaultSeconds);  // still tunes
  EXPECT_FALSE(run.attempts.empty());
}

TEST(LlmChaos, TotalOutageReachesRuleBaseline) {
  obs::CounterRegistry registry;
  const TuningRunResult run = tuneUnderScenario("llm-outage", &registry);

  // Every model is down: the agent is abandoned and the rule-derived
  // baseline still improves on the default configuration.
  EXPECT_EQ(run.resilienceRung, "rule-baseline");
  EXPECT_NE(run.endReason.find("abandoned"), std::string::npos);
  EXPECT_GT(run.resilience.breakerTrips, 0u);
  EXPECT_LT(run.bestSeconds, run.defaultSeconds);
  EXPECT_TRUE(pfs::validateConfig(run.bestConfig, pfs::BoundsContext{}).empty());
  EXPECT_EQ(registry.counter("pfs.sim.config_rejected").value(), 0.0);
}

// ---- Clean-path bit-identity --------------------------------------------

TEST(LlmChaos, ChaosMachineryNeverPerturbsCleanRuns) {
  // Baseline: the engine exactly as every pre-chaos test runs it.
  pfs::PfsSimulator plain;
  StellarOptions vanilla;
  vanilla.seed = 42;
  vanilla.agent.seed = 42;
  StellarEngine plainEngine{plain, vanilla};
  const TuningRunResult before =
      plainEngine.tune(workloads::byName("IOR_16M", benchLikeOpts()));

  // Same session with every chaos feature armed — Enforce sanitizer,
  // explicit fallback model, a live journal — but no faults injected.
  pfs::PfsSimulator sim;
  SessionJournal journal{journalPath("clean_identity")};
  StellarOptions armed = chaosOptions();
  armed.journal = &journal;
  StellarEngine engine{sim, armed};
  const TuningRunResult after =
      engine.tune(workloads::byName("IOR_16M", benchLikeOpts()));

  EXPECT_EQ(before.toJson().dump(), after.toJson().dump());
  EXPECT_EQ(after.resilienceRung, "primary");
  EXPECT_EQ(after.resilience.llmWastedAttempts, 0u);
  EXPECT_EQ(after.resilience.sanitizerIssues, 0u);
  EXPECT_GT(journal.measurementCount(), 0u);  // the journal was live
}

// ---- KILL-RESUME metamorphic law ----------------------------------------

/// Runs one journaled session to completion, interrupting it after every
/// `cap` fresh measurements (the deterministic SIGKILL stand-in) and
/// resuming from the journal until it completes. A short session journals
/// only a couple of measurements, so the cap must stay tiny for the
/// interrupt to fire at all. Returns the final result.
TuningRunResult runWithInterruptions(const std::string& path,
                                     const std::string& scenario,
                                     std::size_t cap, int* incarnations) {
  faults::FaultPlan plan;
  if (!scenario.empty()) {
    plan = faults::scenarioByName(scenario);
  }
  for (int attempt = 0; attempt < 50; ++attempt) {
    ++*incarnations;
    pfs::PfsSimulator simulator{{.faults = &plan}};
    SessionJournal journal{path};  // reloads what prior incarnations wrote
    StellarOptions options = chaosOptions();
    options.journal = &journal;
    options.maxMeasurements = cap;
    StellarEngine engine{simulator, options};
    try {
      return engine.tune(workloads::byName("IOR_16M", benchLikeOpts()));
    } catch (const SessionInterrupted&) {
      continue;  // next incarnation resumes from the journal
    }
  }
  throw std::runtime_error("session did not converge within 50 incarnations");
}

TuningRunResult runUninterrupted(const std::string& scenario) {
  faults::FaultPlan plan;
  if (!scenario.empty()) {
    plan = faults::scenarioByName(scenario);
  }
  pfs::PfsSimulator simulator{{.faults = &plan}};
  StellarEngine engine{simulator, chaosOptions()};
  return engine.tune(workloads::byName("IOR_16M", benchLikeOpts()));
}

TEST(LlmChaos, KillResumeIsBitIdentical) {
  const TuningRunResult whole = runUninterrupted("");

  int incarnations = 0;
  const TuningRunResult pieced =
      runWithInterruptions(journalPath("kill_resume"), "", 1, &incarnations);

  EXPECT_GT(incarnations, 1);  // the cap really did interrupt the session
  EXPECT_GT(pieced.resilience.journalReplayedMeasurements, 0u);
  EXPECT_EQ(whole.toJson().dump(), pieced.toJson().dump());
  EXPECT_EQ(whole.bestConfig, pieced.bestConfig);
  ASSERT_EQ(whole.transcript.events().size(), pieced.transcript.events().size());
  for (std::size_t i = 0; i < whole.transcript.events().size(); ++i) {
    EXPECT_EQ(whole.transcript.events()[i].body, pieced.transcript.events()[i].body);
  }
}

TEST(LlmChaos, KillResumeHoldsUnderInjectedLlmFaults) {
  // Satellite 3: the replay law must survive agent-layer chaos too — the
  // fault draws are pure functions of (model, call index, attempt), so a
  // resumed session re-samples the exact same weather.
  const TuningRunResult whole = runUninterrupted("flaky-llm");

  int incarnations = 0;
  const TuningRunResult pieced = runWithInterruptions(
      journalPath("kill_resume_flaky"), "flaky-llm", 1, &incarnations);

  EXPECT_GT(incarnations, 1);
  EXPECT_EQ(whole.toJson().dump(), pieced.toJson().dump());
  EXPECT_GT(pieced.resilience.llmWastedAttempts, 0u);  // faults really fired
}

TEST(LlmChaos, JournalRefusesAForeignSession) {
  const std::string path = journalPath("foreign");
  {
    pfs::PfsSimulator simulator;
    SessionJournal journal{path};
    StellarOptions options = chaosOptions();
    options.journal = &journal;
    StellarEngine engine{simulator, options};
    (void)engine.tune(workloads::byName("IOR_16M", benchLikeOpts()));
  }
  // Same journal, different workload: binding must fail loudly instead of
  // replaying another session's measurements.
  pfs::PfsSimulator simulator;
  SessionJournal journal{path};
  StellarOptions options = chaosOptions();
  options.journal = &journal;
  StellarEngine engine{simulator, options};
  EXPECT_THROW((void)engine.tune(workloads::byName("IOR_64K", benchLikeOpts())),
               std::runtime_error);
}

TEST(LlmChaos, JournalRefusesTheSameWorkloadAtAnotherScale) {
  const std::string path = journalPath("scale");
  const auto tuneAt = [&path](double scale) {
    pfs::PfsSimulator simulator;
    SessionJournal journal{path};
    StellarOptions options = chaosOptions();
    options.journal = &journal;
    StellarEngine engine{simulator, options};
    workloads::WorkloadOptions opts = benchLikeOpts();
    opts.scale = scale;
    return engine.tune(workloads::byName("IOR_64K", opts));
  };
  (void)tuneAt(0.05);
  // Same workload name, seeds and models, but twice the job: replaying the
  // small job's measurements would report its times as the large job's.
  try {
    (void)tuneAt(0.1);
    ADD_FAILURE() << "the scale-0.05 journal was replayed into a scale-0.1 session";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("belongs to a different session"),
              std::string::npos)
        << e.what();
  }
}

TEST(LlmChaos, ChangedDecisionsMeasureAfreshInsteadOfReplaying) {
  // A rule set learned on two other sessions changes which configurations a
  // session tries, but not the session's identity. Its journal replay must
  // then hand no attempt a measurement of a different configuration.
  const auto tune = [](const std::string& workload, std::uint64_t seed,
                       rules::RuleSet& rules, SessionJournal* journal) {
    pfs::PfsSimulator simulator;
    StellarOptions options;
    options.seed = seed;
    options.agent.seed = seed;
    options.journal = journal;
    StellarEngine engine{simulator, options};
    return engine.tune(workloads::byName(workload, benchLikeOpts()), &rules);
  };
  rules::RuleSet learned;
  (void)tune("IOR_16M", 1, learned, nullptr);
  (void)tune("IOR_64K", 3, learned, nullptr);
  ASSERT_GT(learned.size(), 0u);

  const std::string path = journalPath("changed_decisions");
  {
    SessionJournal journal{path};
    rules::RuleSet none;
    (void)tune("IOR_64K", 42, none, &journal);  // cold session, journaled
  }
  rules::RuleSet rulesA = learned;
  rules::RuleSet rulesB = learned;
  const TuningRunResult whole = tune("IOR_64K", 42, rulesA, nullptr);
  SessionJournal journal{path};
  const TuningRunResult resumed = tune("IOR_64K", 42, rulesB, &journal);
  EXPECT_EQ(whole.toJson().dump(), resumed.toJson().dump());
}

}  // namespace
}  // namespace stellar::core
