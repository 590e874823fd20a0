// StellarEngine: the complete online tuning loop of Fig. 1 — initial run,
// Darshan characterization, Analysis Agent report, Tuning Agent tool loop
// (Analysis? / Configuration Runner / End Tuning?), and Reflect & Summarize
// into the global Rule Set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agents/action_sanitizer.hpp"
#include "agents/analysis_agent.hpp"
#include "agents/transcript.hpp"
#include "agents/tuning_agent.hpp"
#include "core/offline_extractor.hpp"
#include "core/session_journal.hpp"
#include "llm/token_meter.hpp"
#include "pfs/simulator.hpp"
#include "rules/rules.hpp"
#include "util/json.hpp"

namespace stellar::core {

/// Deployment scope (§5.6): production HPC users usually lack root, so the
/// engine can restrict itself to parameters an unprivileged user can set
/// (per-file layout via lfs setstripe).
enum class TuningScope {
  SystemWide,      ///< all 13 tunables (the paper's CloudLab setting)
  UserAccessible,  ///< only user-settable parameters (future-work mode)
};

/// What a cross-run memory recalls for a new workload: the best known
/// configuration for a similar I/O behaviour plus the rules learned
/// alongside it. Produced by exp::ExperienceStore; consumed by the engine
/// to warm-start the Tuning Agent.
struct WarmStartHint {
  pfs::PfsConfig config;               ///< best config of the closest experience
  rules::RuleSet rules;                ///< merged rules of the recalled experiences
  std::vector<std::string> sourceIds;  ///< store record ids behind the hint
  double similarity = 0.0;             ///< fingerprint similarity of the top match
  std::string provenance;              ///< human-readable recall summary
};

/// Cross-run memory interface. The engine only ever *reads* hints; how a
/// recalled configuration fared goes into the run's result
/// (TuningRunResult::warmStartVerdict), and whoever files the result
/// carries it to the memory. Persistence, similarity retrieval, and
/// eviction live in src/exp (which depends on core, not the other way
/// around).
class WarmStartProvider {
 public:
  virtual ~WarmStartProvider() = default;

  /// Recalls prior experience for a workload with this I/O report; nullopt
  /// when nothing sufficiently similar is stored.
  [[nodiscard]] virtual std::optional<WarmStartHint> warmStart(
      const agents::IoReport& report) const = 0;
};

/// The run's judgement of the configuration it recalled (staleness
/// feedback for the memory that produced it).
enum class WarmStartVerdict {
  None,       ///< no recall, a fault ate its measurement, or neither below
  Regressed,  ///< measured worse than the default, or failed validation
  Confirmed,  ///< landed within 5% of the run's final best
};

struct StellarOptions {
  agents::TuningAgentOptions agent;            ///< tuning-agent model + ablations
  llm::ModelProfile analysisModel = llm::gpt4o();
  TuningScope scope = TuningScope::SystemWide;
  std::uint64_t seed = 1;
  /// Measurement watchdog: simulated-seconds cap per run (0 = unlimited).
  /// A capped run comes back RunOutcome::TimedOut and is treated like any
  /// other failed measurement (re-measured once, then skipped).
  double maxSimSecondsPerRun = 0.0;
  /// Cross-run memory (nullable, non-owning; must outlive the engine).
  /// When set and the run has an I/O report, a sufficiently similar prior
  /// experience warm-starts the Tuning Agent: its best config becomes the
  /// first attempt and its rules join the matched rule set. The run's
  /// verdict on the recalled config lands in TuningRunResult.
  const WarmStartProvider* warmStart = nullptr;

  // --- agent-layer resilience (ISSUE 7) ------------------------------------
  /// Tool-call payload validation at the Tuning Agent boundary. Observe
  /// (default) records issues without touching the config — byte-for-byte
  /// the pre-sanitizer behavior; Enforce repairs it (drop / revert / clamp).
  agents::SanitizerMode sanitizer = agents::SanitizerMode::Observe;
  /// Cheaper model the resilience ladder falls back to when the primary
  /// model's circuit breaker opens (or decisions keep failing).
  llm::ModelProfile fallbackModel = llm::llama31_70b();
  /// Crash-safe session journal (nullable, non-owning; must outlive the
  /// engine). Measurements are recorded as they complete and replayed on
  /// resume, so a killed session re-converges bit-identically. The engine
  /// never marks it complete: the caller does (SessionJournal::markComplete
  /// with the result document) once it has filed the result, so a kill in
  /// between re-runs the session from its measurements instead of losing
  /// what the caller would have filed.
  SessionJournal* journal = nullptr;
  /// Deterministic interrupt: once this many *fresh* journaled simulator
  /// measurements have run in this process, tune() throws
  /// SessionInterrupted (0 = unlimited). The CI kill/resume smoke uses it
  /// as a reproducible stand-in for SIGKILL; replayed measurements do not
  /// count, so every resume makes progress.
  std::size_t maxMeasurements = 0;
};

/// One complete Tuning Run (the paper's unit of evaluation).
struct TuningRunResult {
  std::string workload;
  double defaultSeconds = 0.0;
  /// wall time per iteration: index 0 = initial default run, then each
  /// configuration attempt in order (the x-axes of Figs. 6/7).
  std::vector<double> iterationSeconds;
  std::vector<agents::Attempt> attempts;
  pfs::PfsConfig bestConfig;
  double bestSeconds = 0.0;
  std::string endReason;
  std::vector<rules::Rule> learnedRules;
  bool hasReport = false;
  agents::IoReport report;
  agents::Transcript transcript;
  llm::TokenMeter meter;
  /// Cross-run memory provenance: set when a WarmStartProvider recalled a
  /// prior experience for this run.
  bool warmStarted = false;
  double warmStartSimilarity = 0.0;
  std::vector<std::string> warmStartSources;
  /// The run's verdict on the recalled config (not serialized: it travels
  /// to the memory inside the run's exp::ExperienceRecord).
  WarmStartVerdict warmStartVerdict = WarmStartVerdict::None;

  /// Resilience ladder rung the session ended on: "primary" (the configured
  /// agent model carried the run), "fallback-model" (the cheaper model took
  /// over), "rule-baseline" (both models unusable; a rule/heuristic-derived
  /// config was measured and won), or "safe-default" (nothing beat the
  /// default configuration).
  std::string resilienceRung = "primary";
  struct ResilienceStats {
    std::uint64_t llmCalls = 0;           ///< logical calls issued
    std::uint64_t llmWastedAttempts = 0;  ///< failed attempts (billed wasted)
    std::uint64_t llmFailedCalls = 0;     ///< logical calls that never delivered
    std::uint64_t breakerTrips = 0;
    double backoffSeconds = 0.0;  ///< simulated retry backoff waited
    std::uint64_t undeliveredDecisions = 0;
    std::uint64_t sanitizerIssues = 0;
    std::uint64_t clampedValues = 0;
    std::uint64_t rejectedMoves = 0;
    std::uint64_t staleAnalyses = 0;
    std::uint64_t journalReplayedMeasurements = 0;
  };
  ResilienceStats resilience;

  [[nodiscard]] double bestSpeedup() const noexcept {
    return bestSeconds > 0 ? defaultSeconds / bestSeconds : 0.0;
  }

  /// Convergence metric: the 1-based index of the first valid attempt whose
  /// wall time is within `tolerance` of `targetSeconds` (default: this
  /// run's own best). attempts.size() + 1 when never reached — callers
  /// compare medians, so the penalty value only needs to sort last.
  [[nodiscard]] std::size_t iterationsToWithin(double tolerance,
                                               double targetSeconds = 0.0) const;

  /// Canonical serialization of a tuning run — workload, timings,
  /// attempts (config + outcome), learned rules, transcript, and token
  /// totals. The CLI's --json flag and the benches emit this instead of
  /// hand-formatting fields.
  [[nodiscard]] util::Json toJson() const;
};

class StellarEngine {
 public:
  StellarEngine(pfs::PfsSimulator simulator, StellarOptions options);

  /// Runs one complete tuning run on `job`. When `globalRules` is given,
  /// matched rules steer the first configuration and the learned rules are
  /// merged back (with §4.4.2 conflict resolution + outcome pruning).
  [[nodiscard]] TuningRunResult tune(const pfs::JobSpec& job,
                                     rules::RuleSet* globalRules = nullptr);

  /// The offline extraction for this engine's cluster, shared by every
  /// engine in the process (core::sharedExtraction).
  [[nodiscard]] const ExtractionResult& extraction() const;

  [[nodiscard]] const pfs::PfsSimulator& simulator() const noexcept {
    return simulator_;
  }
  [[nodiscard]] const StellarOptions& options() const noexcept { return options_; }

 private:
  [[nodiscard]] std::map<std::string, llm::ParamKnowledge> buildKnowledge() const;

  pfs::PfsSimulator simulator_;
  StellarOptions options_;
};

}  // namespace stellar::core
