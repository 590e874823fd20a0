// The Tuning Agent (§4.3.2): primary controller of the iterative tuning
// loop. Each turn it selects one of the paper's three tools — ask the
// Analysis Agent a follow-up (Analysis?), generate and run a new
// configuration (Configuration Runner), or stop (End Tuning?) — and
// documents the rationale for every parameter it changes.
//
// Decision mechanics. The agent compiles a plan of *move groups*
// (hypotheses) from, in priority order: matched rules from the global Rule
// Set, then a workload-conditioned playbook derived from the I/O Report and
// its per-parameter knowledge. Knowledge governs correctness exactly as in
// the paper's ablations: grounded (RAG) knowledge yields the documented
// semantics; memory-recalled knowledge may be hallucinated, producing
// misguided moves (e.g. widening stripes "to distribute small files") or
// out-of-range values that fail validation. The model's reasoning quality
// softens or defers moves stochastically (seeded), which is what separates
// the Fig. 9 model profiles.
//
// Feedback policy mirrors §4.3.2: improvements are kept and pursued more
// aggressively; regressions are reverted and the next hypothesis is tried;
// the agent ends when expected marginal gain is low after a clear win.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agents/io_report.hpp"
#include "agents/transcript.hpp"
#include "llm/knowledge.hpp"
#include "llm/llm_client.hpp"
#include "llm/model_profile.hpp"
#include "pfs/params.hpp"
#include "rules/rules.hpp"
#include "util/rng.hpp"

namespace stellar::agents {

struct TuningAgentOptions {
  llm::ModelProfile model = llm::claude37Sonnet();
  /// Ablation flags (Fig. 8): without analysis there is no I/O report;
  /// without descriptions the agent reasons from memory-recalled (possibly
  /// hallucinated) semantics even when ranges are grounded.
  bool useAnalysis = true;
  bool useDescriptions = true;
  int maxAttempts = 5;       ///< the paper's 5-configuration cap
  std::uint64_t seed = 1;
};

/// One configuration trial.
struct Attempt {
  pfs::PfsConfig config;
  double seconds = 0.0;
  bool valid = true;
  /// True when the run itself failed or timed out (fault injection, retry
  /// exhaustion, watchdog) — the configuration was never actually judged.
  bool measurementFailed = false;
  /// True when this attempt trialed a configuration recalled from the
  /// experience store (warm start); the engine keys staleness feedback on it.
  bool warmStart = false;
  std::string rationale;
  std::string error;
};

/// A tried move whose outcome was negative (used for rule pruning §4.4.2).
struct NegativeFinding {
  std::string parameter;
  rules::Direction direction;
};

class TuningAgent {
 public:
  enum class ActionKind { AskAnalysis, RunConfig, EndTuning };

  /// One raw parameter move as emitted in the tool-call payload. Unlike
  /// `config` (which can only hold real knobs), the raw list can carry a
  /// hallucinated knob name — exactly what the ActionSanitizer validates.
  struct RawMove {
    std::string param;
    std::int64_t value = 0;
  };

  struct Action {
    ActionKind kind = ActionKind::EndTuning;
    FollowUpQuestion question = FollowUpQuestion::FileSizeDistribution;
    pfs::PfsConfig config;
    std::string rationale;
    /// Raw tool-call payload for RunConfig actions (sanitizer input).
    std::vector<RawMove> emitted;
    /// False when the model call behind this decision failed (timeout /
    /// rate limit / truncation / breaker): the action was *attempted* but
    /// never delivered — the caller must not execute it. Internal agent
    /// state is rolled back so a retried decide() reproduces the choice.
    bool delivered = true;
    /// The analysis answer this question receives will be stale (fault
    /// injection); only meaningful for AskAnalysis actions.
    bool staleAnalysis = false;
  };

  /// Every model call goes through `llm` (non-owning), the fault-injection,
  /// retry and circuit-breaker boundary; a client with no faults meters
  /// each call and never fails one.
  TuningAgent(TuningAgentOptions options,
              std::map<std::string, llm::ParamKnowledge> knowledge,
              pfs::BoundsContext bounds, const rules::RuleSet* globalRules,
              llm::LlmClient& llm, Transcript& transcript);

  /// Resilience-ladder model swap: subsequent calls bill and sample faults
  /// as `model`. The decision plan (already built, seeded by the original
  /// model) is kept — the cheaper model inherits the session, it does not
  /// restart it.
  void switchModel(const llm::ModelProfile& model) { opts_.model = model; }

  [[nodiscard]] const llm::ModelProfile& model() const noexcept { return opts_.model; }

  /// Outcome of the model call behind the most recent decide().
  [[nodiscard]] const llm::CallOutcome& lastOutcome() const noexcept {
    return lastOutcome_;
  }

  /// Warm start from cross-run memory: `config` (a prior run's best for a
  /// similar workload) becomes the first Configuration Runner attempt,
  /// ahead of every planned hypothesis. Must be called before
  /// observeInitialRun. The recalled values are treated as grounded
  /// knowledge (no hallucination gating or cautious softening), but they
  /// still flow through normal validation, repair, and best/revert
  /// bookkeeping — a stale memory is judged, not trusted.
  void primeWarmStart(const pfs::PfsConfig& config, std::string note);

  /// Feeds the initial (default-config) execution. `report` is null in the
  /// No-Analysis ablation.
  void observeInitialRun(const IoReport* report, double defaultSeconds,
                         const pfs::PfsConfig& defaultConfig);

  /// The agent's next tool call.
  [[nodiscard]] Action decide();

  /// Result channels for the tools.
  void observeAnalysisAnswer(FollowUpQuestion question, const std::string& answer);
  void observeRunResult(double seconds, bool valid, const std::string& error);

  /// The run could not be measured (RPC retry budget exhausted, watchdog
  /// timeout). Unlike an invalid config there is nothing to repair and no
  /// negative finding — the configuration was never judged — so the group
  /// is simply dropped and bestConfig_/bestSeconds_ stay untouched.
  void observeMeasurementFailure(const std::string& reason);

  [[nodiscard]] const std::vector<Attempt>& attempts() const noexcept {
    return attempts_;
  }
  [[nodiscard]] const pfs::PfsConfig& bestConfig() const noexcept { return bestConfig_; }
  [[nodiscard]] double bestSeconds() const noexcept { return bestSeconds_; }

  /// Reflect & Summarize (§4.4): distills the run into general rules.
  [[nodiscard]] std::vector<rules::Rule> reflectAndSummarize() const;

  /// Tried-and-regressed directions, for pruning rule alternatives.
  [[nodiscard]] const std::vector<NegativeFinding>& negativeFindings() const noexcept {
    return negativeFindings_;
  }

 private:
  struct Move {
    std::string param;
    rules::Direction direction = rules::Direction::SetValue;
    std::int64_t value = 0;  ///< resolved target (what gets written)
    std::string rationale;
    bool fromRule = false;
    bool misguided = false;  ///< generated from hallucinated semantics
  };
  struct MoveGroup {
    std::vector<Move> moves;
    std::string hypothesis;
    bool warmStart = false;     ///< trials a config recalled from experience
    bool fromDefaults = false;  ///< synthesize from the default config, not best
  };

  void buildPlan();
  void planFromRules(std::vector<std::string>& covered);
  void planMetadataPlaybook(const std::vector<std::string>& covered, bool aggressive);
  void planLargeSequentialPlaybook(const std::vector<std::string>& covered,
                                   bool aggressive);
  void planSmallRandomPlaybook(const std::vector<std::string>& covered);

  /// Applies knowledge gating + reasoning-quality softening to a raw move.
  [[nodiscard]] std::optional<Move> shapeMove(Move move);
  /// The misguided variant produced by hallucinated semantics.
  [[nodiscard]] Move misguidedMove(const std::string& param);

  [[nodiscard]] std::int64_t believedMax(const std::string& param) const;
  [[nodiscard]] std::int64_t believedMin(const std::string& param) const;
  [[nodiscard]] pfs::PfsConfig synthesize(const MoveGroup& group,
                                          std::string& rationaleOut) const;
  /// Issues the model call behind a decision. Returns false when the call
  /// failed (fault injection); the caller rolls its state back and returns
  /// an undelivered Action.
  [[nodiscard]] bool recordPromptedCall(const std::string& output);
  /// Fills the raw tool-call payload from the group's moves.
  void fillEmitted(Action& action, const MoveGroup& group) const;
  /// Applies the delivered call's content corruptions (hallucinated knob,
  /// out-of-range value) to a RunConfig action.
  void applyContentFaults(Action& action);

  TuningAgentOptions opts_;
  std::map<std::string, llm::ParamKnowledge> knowledge_;
  pfs::BoundsContext bounds_;
  const rules::RuleSet* globalRules_;
  llm::LlmClient& llm_;
  Transcript& transcript_;
  llm::CallOutcome lastOutcome_;
  util::Rng rng_;

  std::optional<IoReport> report_;
  pfs::PfsConfig defaultConfig_;
  double defaultSeconds_ = 0.0;
  std::optional<pfs::PfsConfig> warmStartConfig_;
  std::string warmStartNote_;

  std::vector<MoveGroup> plan_;
  std::size_t nextGroup_ = 0;
  std::vector<FollowUpQuestion> pendingQuestions_;

  std::vector<Attempt> attempts_;
  pfs::PfsConfig bestConfig_;
  double bestSeconds_ = 0.0;
  std::optional<MoveGroup> inFlight_;  ///< the group being trialed
  std::optional<MoveGroup> repairGroup_;

  std::vector<NegativeFinding> negativeFindings_;
  std::vector<MoveGroup> succeededGroups_;
  std::string knowledgeDump_;  ///< static prompt section (token accounting)
  std::string analysisNotes_;  ///< accumulated follow-up answers (context)
};

}  // namespace stellar::agents
