// The ablation failure modes at move granularity: hallucinated semantics
// must produce the specific misguided proposals §5.4 reports, and the
// agent must stay well-behaved (terminate, revert) under ANY corrupted
// knowledge.
#include <gtest/gtest.h>

#include "agents/tuning_agent.hpp"
#include "llm/knowledge.hpp"
#include "llm/llm_client.hpp"
#include "llm/token_meter.hpp"
#include "manual/param_facts.hpp"

namespace stellar::agents {
namespace {

std::map<std::string, llm::ParamKnowledge> knowledgeWith(
    const std::string& corruptParam, llm::CorruptionKind kind) {
  std::map<std::string, llm::ParamKnowledge> knowledge;
  manual::SystemFacts facts;
  for (const std::string& name : manual::groundTruthTunables()) {
    llm::ParamKnowledge k =
        llm::groundedKnowledge(*manual::findParamFact(name), facts);
    if (name == corruptParam) {
      k.source = llm::KnowledgeSource::ModelMemory;
      k.corruption = kind;
      if (kind == llm::CorruptionKind::WrongRange) {
        k.maxValue *= 8;  // believed max beyond the real one
      }
    }
    knowledge.emplace(name, std::move(k));
  }
  return knowledge;
}

IoReport metadataReport() {
  IoReport report;
  report.context.metaOpShare = 0.8;
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
    options.seed = 3;
    options.model.reasoningQuality = 1.0;
  }
};

TuningAgent::Action firstRunConfig(TuningAgent& agent, const IoReport& report) {
  agent.observeInitialRun(&report, 10.0, pfs::PfsConfig{});
  TuningAgent::Action action = agent.decide();
  while (action.kind == TuningAgent::ActionKind::AskAnalysis) {
    agent.observeAnalysisAnswer(action.question, "a");
    action = agent.decide();
  }
  return action;
}

TEST(MisguidedMoves, WrongLruDefinitionShrinksTheLockCache) {
  Fixture fx;
  TuningAgent agent{fx.options,
                    knowledgeWith("ldlm.lru_size", llm::CorruptionKind::WrongDefinition),
                    pfs::BoundsContext{}, nullptr, fx.client, fx.transcript};
  const auto action = firstRunConfig(agent, metadataReport());
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  // §5.4-style misconception: the agent *shrinks* the lock cache instead
  // of sizing it over the working set.
  EXPECT_LT(action.config.ldlm_lru_size, 1000);
  EXPECT_NE(action.rationale.find("memory"), std::string::npos);
}

TEST(MisguidedMoves, FlippedStataheadDisablesIt) {
  Fixture fx;
  TuningAgent agent{
      fx.options,
      knowledgeWith("llite.statahead_max", llm::CorruptionKind::FlippedDirection),
      pfs::BoundsContext{}, nullptr, fx.client, fx.transcript};
  const auto action = firstRunConfig(agent, metadataReport());
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_EQ(action.config.llite_statahead_max, 0);
}

TEST(MisguidedMoves, WrongStripeSemanticsWidenStripesOnMetadataWorkload) {
  // The exact §5.4 case: with flawed stripe_count semantics, the agent
  // sets the maximum stripe count "to distribute the files more evenly".
  // Grounded semantics would keep stripe_count = 1 on this workload.
  // Inject the corrupted parameter into the plan by letting the
  // data-refinement group carry it: use a streaming report where
  // stripe_count IS in the playbook.
  Fixture fx;
  TuningAgent corrupted{
      fx.options, knowledgeWith("lov.stripe_count", llm::CorruptionKind::WrongDefinition),
      pfs::BoundsContext{}, nullptr, fx.client, fx.transcript};
  const auto action = firstRunConfig(corrupted, streamingReport());
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  // Misguided variant fires (SetMax with the flawed rationale). On the
  // streaming workload that happens to coincide with the right value, but
  // the rationale exposes the flawed reasoning.
  EXPECT_EQ(action.config.stripe_count, -1);
  const bool flawedRationale =
      action.rationale.find("distribute") != std::string::npos ||
      action.rationale.find("always engage") != std::string::npos;
  EXPECT_TRUE(flawedRationale) << action.rationale;
}

TEST(MisguidedMoves, InflatedRangePassesOversizedValuesToValidation) {
  // Believed max 8x the real one: the playbook's SetMax move lands beyond
  // the true bound and must be caught by config validation (the paper's
  // invalid-values failure), after which the agent backs off and recovers.
  Fixture fx;
  TuningAgent agent{
      fx.options,
      knowledgeWith("osc.max_pages_per_rpc", llm::CorruptionKind::WrongRange),
      pfs::BoundsContext{}, nullptr, fx.client, fx.transcript};
  TuningAgent::Action action = firstRunConfig(agent, streamingReport());
  ASSERT_EQ(action.kind, TuningAgent::ActionKind::RunConfig);
  const auto problems = pfs::validateConfig(action.config, pfs::BoundsContext{});
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("osc.max_pages_per_rpc"), std::string::npos);

  agent.observeRunResult(0.0, false, problems.front());
  const TuningAgent::Action repair = agent.decide();
  ASSERT_EQ(repair.kind, TuningAgent::ActionKind::RunConfig);
  EXPECT_LT(repair.config.osc_max_pages_per_rpc,
            action.config.osc_max_pages_per_rpc);
}

TEST(MisguidedMoves, AgentTerminatesUnderAnyCorruption) {
  // Robustness sweep: every (parameter, corruption kind) pair, on both
  // workload shapes, must reach EndTuning within the tool-call budget.
  for (const std::string& param : manual::groundTruthTunables()) {
    for (const llm::CorruptionKind kind :
         {llm::CorruptionKind::WrongRange, llm::CorruptionKind::WrongDefinition,
          llm::CorruptionKind::FlippedDirection}) {
      for (const bool metadata : {true, false}) {
        Fixture fx;
        TuningAgent agent{fx.options, knowledgeWith(param, kind),
                          pfs::BoundsContext{}, nullptr, fx.client, fx.transcript};
        const IoReport report = metadata ? metadataReport() : streamingReport();
        TuningAgent::Action action = firstRunConfig(agent, report);
        int guard = 0;
        while (action.kind == TuningAgent::ActionKind::RunConfig && guard++ < 16) {
          const auto problems =
              pfs::validateConfig(action.config, pfs::BoundsContext{});
          if (problems.empty()) {
            agent.observeRunResult(9.0, true, {});
          } else {
            agent.observeRunResult(0.0, false, problems.front());
          }
          action = agent.decide();
        }
        EXPECT_EQ(action.kind, TuningAgent::ActionKind::EndTuning)
            << param << " " << llm::corruptionName(kind);
        EXPECT_LE(agent.attempts().size(),
                  static_cast<std::size_t>(fx.options.maxAttempts))
            << param;
      }
    }
  }
}

}  // namespace
}  // namespace stellar::agents
