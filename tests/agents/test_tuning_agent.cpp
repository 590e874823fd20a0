// Tuning Agent decision mechanics: tool selection, playbooks, feedback
// policy, invalid-config repair, reflection, and ablation behaviour.
#include <gtest/gtest.h>

#include "agents/tuning_agent.hpp"
#include "llm/knowledge.hpp"
#include "llm/llm_client.hpp"
#include "llm/token_meter.hpp"
#include "manual/param_facts.hpp"
#include "util/units.hpp"

namespace stellar::agents {
namespace {

std::map<std::string, llm::ParamKnowledge> groundedKnowledge() {
  std::map<std::string, llm::ParamKnowledge> knowledge;
  manual::SystemFacts facts;
  for (const std::string& name : manual::groundTruthTunables()) {
    knowledge.emplace(name,
                      llm::groundedKnowledge(*manual::findParamFact(name), facts));
  }
  return knowledge;
}

IoReport metadataReport() {
  IoReport report;
  report.context.metaOpShare = 0.8;
  report.context.readShare = 0.5;
  report.context.sequentialShare = 0.1;
  report.context.sharedFileShare = 0.0;
  report.context.smallFileShare = 1.0;
  report.context.dominantAccessSize = 8 * 1024;
  report.context.fileCount = 100000;
  report.context.totalBytes = 1ULL << 30;
  report.fileCount = 100000;
  report.totalBytes = 1ULL << 30;
  report.text = "metadata-heavy";
  return report;
}

IoReport streamingReport() {
  IoReport report;
  report.context.metaOpShare = 0.01;
  report.context.readShare = 0.5;
  report.context.sequentialShare = 0.95;
  report.context.sharedFileShare = 1.0;
  report.context.smallFileShare = 0.0;
  report.context.dominantAccessSize = 16 << 20;
  report.context.fileCount = 1;
  report.context.totalBytes = 20ULL << 30;
  report.fileCount = 1;
  report.totalBytes = 20ULL << 30;
  report.text = "streaming";
  return report;
}

struct Fixture {
  llm::TokenMeter meter;
  llm::LlmClient client{nullptr, meter, nullptr};  ///< fault-free
  Transcript transcript;
  TuningAgentOptions options;

  Fixture() {
    options.seed = 9;
    options.model.reasoningQuality = 1.0;  // deterministic full steps
  }

  TuningAgent make(const rules::RuleSet* rules = nullptr) {
    return TuningAgent{options, groundedKnowledge(), pfs::BoundsContext{}, rules,
                       client, transcript};
  }
};

TEST(TuningAgent, AsksFollowUpsForMetadataWorkloadFirst) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = metadataReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  const auto a1 = agent.decide();
  EXPECT_EQ(a1.kind, TuningAgent::ActionKind::AskAnalysis);
  agent.observeAnalysisAnswer(a1.question, "answer");
  const auto a2 = agent.decide();
  EXPECT_EQ(a2.kind, TuningAgent::ActionKind::AskAnalysis);
  const auto a3 = agent.decide();
  EXPECT_EQ(a3.kind, TuningAgent::ActionKind::RunConfig);
}

TEST(TuningAgent, MetadataPlaybookTargetsLockAndStataheadKnobs) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = metadataReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_GE(action.config.ldlm_lru_size, 200000);
  EXPECT_GE(action.config.llite_statahead_max, 1024);
  EXPECT_GE(action.config.mdc_max_rpcs_in_flight, 64);
  EXPECT_EQ(action.config.stripe_count, 1);  // small files keep 1 stripe
  EXPECT_NE(action.rationale.find("lock"), std::string::npos);
}

TEST(TuningAgent, StreamingPlaybookStripesWideWithBigRpcs) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_EQ(action.config.stripe_count, -1);
  EXPECT_EQ(action.config.stripe_size, 16 << 20);
  EXPECT_EQ(action.config.osc_max_pages_per_rpc, 4096);
  EXPECT_GE(action.config.osc_max_dirty_mb, 512);
  // Dependent constraint honored: per-file <= budget / 2.
  EXPECT_LE(action.config.llite_max_read_ahead_per_file_mb,
            action.config.llite_max_read_ahead_mb / 2);
}

TEST(TuningAgent, ImprovementIsKeptRegressionIsReverted) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  const pfs::PfsConfig first = action.config;
  agent.observeRunResult(4.0, true, {});  // big improvement
  EXPECT_EQ(agent.bestConfig(), first);
  EXPECT_DOUBLE_EQ(agent.bestSeconds(), 4.0);

  action = agent.decide();
  if (action.kind == TuningAgent::ActionKind::RunConfig) {
    agent.observeRunResult(6.0, true, {});  // regression
    EXPECT_EQ(agent.bestConfig(), first);   // reverted
    EXPECT_FALSE(agent.negativeFindings().empty());
  }
}

TEST(TuningAgent, MeasurementFailureNeverCorruptsBest) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);

  agent.observeMeasurementFailure("rpc retry budget exhausted");

  // Best stays at the default baseline; nothing was judged.
  EXPECT_EQ(agent.bestConfig(), pfs::PfsConfig{});
  EXPECT_DOUBLE_EQ(agent.bestSeconds(), 10.0);
  // Unlike a regression, a failed measurement yields no negative finding.
  EXPECT_TRUE(agent.negativeFindings().empty());
  ASSERT_FALSE(agent.attempts().empty());
  const Attempt& failed = agent.attempts().back();
  EXPECT_TRUE(failed.measurementFailed);
  EXPECT_FALSE(failed.valid);
  EXPECT_NE(failed.error.find("retry budget"), std::string::npos);

  // The agent keeps going: the next decision moves to a new hypothesis
  // (or ends cleanly) instead of re-trying or repairing the dropped group.
  action = agent.decide();
  if (action.kind == TuningAgent::ActionKind::RunConfig) {
    agent.observeRunResult(4.0, true, {});
    EXPECT_DOUBLE_EQ(agent.bestSeconds(), 4.0);  // later wins still land
  }
}

TEST(TuningAgent, StopsAtDiminishingReturnsWithJustification) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  agent.observeRunResult(4.0, true, {});
  action = agent.decide();
  if (action.kind == TuningAgent::ActionKind::RunConfig) {
    agent.observeRunResult(4.05, true, {});  // no further gain
    action = agent.decide();
  }
  EXPECT_EQ(action.kind, TuningAgent::ActionKind::EndTuning);
  EXPECT_NE(action.rationale.find("diminishing returns"), std::string::npos);
}

TEST(TuningAgent, RespectsAttemptBudget) {
  Fixture fx;
  fx.options.maxAttempts = 1;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  agent.observeRunResult(9.9, true, {});  // tiny improvement, would continue
  action = agent.decide();
  EXPECT_EQ(action.kind, TuningAgent::ActionKind::EndTuning);
}

TEST(TuningAgent, InvalidRunTriggersBackedOffRepair) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  const pfs::PfsConfig rejected = action.config;
  agent.observeRunResult(0.0, false, "out of range");
  const TuningAgent::Action repair = agent.decide();
  ASSERT_EQ(repair.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_NE(repair.config, rejected);
  EXPECT_NE(repair.rationale.find("backed off"), std::string::npos);
}

TEST(TuningAgent, NoAnalysisFallsBackToLargeFileAssumptions) {
  Fixture fx;
  fx.options.useAnalysis = false;
  TuningAgent agent = fx.make();
  agent.observeInitialRun(nullptr, 10.0, pfs::PfsConfig{});
  const TuningAgent::Action action = agent.decide();
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  // The §5.4 failure: readahead and RPC-size parameters raised blindly.
  EXPECT_EQ(action.config.stripe_count, -1);
  EXPECT_EQ(action.config.osc_max_pages_per_rpc, 4096);
  EXPECT_GT(action.config.llite_max_read_ahead_mb, 64);
}

TEST(TuningAgent, RuleSetDrivesFirstConfiguration) {
  Fixture fx;
  rules::RuleSet rules;
  rules::Rule rule;
  rule.parameter = "ldlm.lru_size";
  rule.description = "size the lock LRU above the working set";
  rule.context = metadataReport().context;
  rule.direction = rules::Direction::SetValue;
  rule.value = 123456;
  rules.add(rule);

  TuningAgent agent = fx.make(&rules);
  const IoReport report = metadataReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_EQ(action.config.ldlm_lru_size, 123456);
  EXPECT_NE(action.rationale.find("rule"), std::string::npos);
}

TEST(TuningAgent, PlaybookRetestsFromDefaultsAfterMarginalRuleWin) {
  Fixture fx;

  // Random small-record shape: no analysis follow-ups, small-random playbook.
  IoReport report;
  report.context.metaOpShare = 0.02;
  report.context.readShare = 0.5;
  report.context.sequentialShare = 0.02;
  report.context.sharedFileShare = 1.0;
  report.context.smallFileShare = 0.0;
  report.context.dominantAccessSize = 64 * 1024;
  report.context.fileCount = 1;
  report.context.totalBytes = 1ULL << 30;
  report.fileCount = 1;
  report.totalBytes = 1ULL << 30;
  report.text = "random small records";

  // A matched rule (context identical to the report) seeds attempt 1 with a
  // large stripe — harmful guidance carried over from a merely similar
  // workload.
  rules::RuleSet rules;
  rules::Rule rule;
  rule.parameter = "lov.stripe_size";
  rule.description = "use wide stripes for high aggregate bandwidth";
  rule.context = report.context;
  rule.direction = rules::Direction::SetValue;
  rule.value = static_cast<std::int64_t>(16 * util::kMiB);
  rules.add(rule);

  TuningAgent agent = fx.make(&rules);
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action first = agent.decide();
  while (first.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(first.question, "a");
    first = agent.decide();
  }
  ASSERT_EQ(first.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_EQ(first.config.stripe_size, static_cast<std::int64_t>(16 * util::kMiB));

  // The rule attempt wins by a hair, so it becomes the best config...
  agent.observeRunResult(9.9, true, {});

  TuningAgent::Action second = agent.decide();
  ASSERT_EQ(second.kind, TuningAgent::ActionKind::RunConfig);
  // ...but the playbook hypothesis is still synthesized from the *default*
  // configuration: a marginal rule win must not drag every later attempt
  // through its knob choices (§4.4.2 outcome safety).
  EXPECT_EQ(second.config.stripe_size, pfs::PfsConfig{}.stripe_size);
}

TEST(TuningAgent, ReflectionEmitsRulesOnlyAfterRealGains) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  agent.observeRunResult(9.99, true, {});  // negligible gain
  EXPECT_TRUE(agent.reflectAndSummarize().empty());
}

TEST(TuningAgent, ReflectedRulesAreGeneralAndContextTagged) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  agent.observeRunResult(3.0, true, {});
  const auto learned = agent.reflectAndSummarize();
  ASSERT_FALSE(learned.empty());
  for (const rules::Rule& rule : learned) {
    // §4.4.1: general recommendations, no application names.
    EXPECT_EQ(rule.description.find("IOR"), std::string::npos);
    EXPECT_NEAR(rule.context.similarity(report.context), 1.0, 1e-9);
    EXPECT_FALSE(rule.parameter.empty());
  }
}

TEST(TuningAgent, TokensAccountedPerDecision) {
  Fixture fx;
  TuningAgent agent = fx.make();
  const IoReport report = streamingReport();
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  (void)agent.decide();
  EXPECT_GT(fx.meter.totals("tuning-agent").calls, 0u);
  EXPECT_GT(fx.meter.totals("tuning-agent").inputTokens, 100u);
}

}  // namespace
}  // namespace stellar::agents
