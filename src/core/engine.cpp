#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "darshan/recorder.hpp"
#include "dataframe/from_darshan.hpp"
#include "llm/llm_client.hpp"
#include "llm/llm_fault_model.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace stellar::core {

namespace {

pfs::RunOutcome runOutcomeByName(const std::string& name) {
  if (name == "failed") {
    return pfs::RunOutcome::Failed;
  }
  if (name == "timed-out") {
    return pfs::RunOutcome::TimedOut;
  }
  return pfs::RunOutcome::Ok;
}

/// The resilience ladder's model-free rung: a configuration derived from
/// matched rules (applied at their documented bounds) or, failing that, a
/// modest heuristic preset keyed on the I/O report. Returns the default
/// configuration when there is no evidence to act on.
pfs::PfsConfig ruleBaselineConfig(const agents::IoReport* report,
                                  const rules::RuleSet* rules,
                                  const pfs::BoundsContext& ctx) {
  pfs::PfsConfig cfg;
  bool any = false;
  if (report != nullptr && rules != nullptr && !rules->empty()) {
    for (const rules::Rule* rule : rules->match(report->context, 0.7)) {
      const auto bounds = pfs::paramBounds(rule->parameter, cfg, ctx);
      if (!bounds) {
        continue;
      }
      std::int64_t value = cfg.get(rule->parameter).value_or(bounds->min);
      switch (rule->direction) {
        case rules::Direction::SetMax: value = bounds->max; break;
        case rules::Direction::SetMin: value = bounds->min; break;
        case rules::Direction::SetValue: value = rule->value; break;
        case rules::Direction::Increase: value = value * 8; break;
        case rules::Direction::Decrease: value = value / 8; break;
      }
      value = std::clamp(value, bounds->min, bounds->max);
      any = cfg.set(rule->parameter, value) || any;
    }
  }
  if (!any && report != nullptr) {
    // No matched rules: a conservative preset per workload family (far less
    // ambitious than the agent's playbooks — this rung only needs to beat
    // the default, not the tuned optimum).
    const rules::WorkloadContext& c = report->context;
    if (c.metaOpShare > 0.6) {
      (void)cfg.set("llite.statahead_max", 1024);
      (void)cfg.set("mdc.max_rpcs_in_flight", 64);
      (void)cfg.set("mdc.max_mod_rpcs_in_flight", 63);
      (void)cfg.set("ldlm.lru_size", 65536);
    } else if (c.sequentialShare > 0.6) {
      (void)cfg.set("lov.stripe_count", -1);
      (void)cfg.set("lov.stripe_size", static_cast<std::int64_t>(4 * util::kMiB));
      (void)cfg.set("osc.max_pages_per_rpc", 1024);
      (void)cfg.set("osc.max_dirty_mb", 256);
    } else {
      (void)cfg.set("lov.stripe_count", -1);
      (void)cfg.set("osc.max_rpcs_in_flight", 32);
    }
  }
  return pfs::clampConfig(cfg, ctx);
}

/// The facts the extraction and the recalled ranges resolve against.
manual::SystemFacts systemFactsOf(const pfs::ClusterSpec& cluster) {
  manual::SystemFacts facts;
  facts.clientRamMb = cluster.clientRamMb();
  facts.ostCount = cluster.totalOsts();
  return facts;
}

}  // namespace

StellarEngine::StellarEngine(pfs::PfsSimulator simulator, StellarOptions options)
    : simulator_(std::move(simulator)), options_(std::move(options)) {}

const ExtractionResult& StellarEngine::extraction() const {
  obs::Tracer::Span span =
      obs::beginSpan(simulator_.tracer(), "tuning", "offline-extraction");
  bool ranPipeline = false;
  const ExtractionResult& result =
      sharedExtraction(systemFactsOf(simulator_.cluster()), ranPipeline);
  span.arg("ran_pipeline", util::Json(ranPipeline));
  if (obs::CounterRegistry* counters = simulator_.counters()) {
    if (ranPipeline) {
      counters->counter("core.extraction.cache_miss").add();
    } else {
      counters->counter("core.extraction.cache_hit").add();
    }
  }
  return result;
}

std::map<std::string, llm::ParamKnowledge> StellarEngine::buildKnowledge() const {
  std::map<std::string, llm::ParamKnowledge> knowledge;
  const manual::SystemFacts facts = systemFactsOf(simulator_.cluster());

  // In user scope the agent only knows about (and can only set) the
  // parameters an unprivileged user controls.
  const auto inScope = [this](const std::string& name) {
    if (options_.scope == TuningScope::SystemWide) {
      return true;
    }
    const manual::ParamFact* fact = manual::findParamFact(name);
    return fact != nullptr && fact->userAccessible;
  };

  for (const ExtractedParam& param : extraction().tunables) {
    if (!inScope(param.name)) {
      continue;
    }
    llm::ParamKnowledge k = param.knowledge;
    if (!options_.agent.useDescriptions) {
      // No-Descriptions ablation (§5.4): the grounded value ranges are
      // kept, but the semantic understanding falls back to model memory
      // — hallucination-prone.
      const manual::ParamFact* fact = manual::findParamFact(param.name);
      if (fact != nullptr) {
        // Without any description the model has nothing to anchor its
        // semantics on, so recall is substantially more hallucination
        // prone than an ordinary memory lookup.
        llm::ModelProfile blinded = options_.agent.model;
        blinded.hallucinationRate =
            std::max(0.25, blinded.hallucinationRate * 4.0);
        llm::ParamKnowledge recalled = llm::recallFromMemory(
            *fact, blinded, facts, options_.seed ^ 0xD15AB1EDULL);
        recalled.minValue = k.minValue;  // ranges stay grounded
        recalled.maxValue = k.maxValue;
        if (recalled.corruption == llm::CorruptionKind::WrongRange) {
          // A range corruption is moot when ranges are grounded; what is
          // lost is the description.
          recalled.corruption = llm::CorruptionKind::WrongDefinition;
        }
        k = recalled;
      }
    }
    knowledge.emplace(param.name, std::move(k));
  }
  return knowledge;
}

TuningRunResult StellarEngine::tune(const pfs::JobSpec& job,
                                    rules::RuleSet* globalRules) {
  TuningRunResult result;
  result.workload = job.name;

  obs::Tracer* tracer = simulator_.tracer();
  obs::Tracer::Span tuneSpan = obs::beginSpan(tracer, "tuning", "tune:" + job.name);

  const pfs::PfsConfig defaultConfig{};
  const std::uint64_t seedBase = util::mix64(options_.seed, 0x7E57);

  const pfs::RunLimits limits{options_.maxSimSecondsPerRun};
  obs::CounterRegistry* registry = simulator_.counters();
  const auto noteRetriedMeasurement = [registry](const pfs::RunResult& failed) {
    if (registry != nullptr) {
      registry->counter("core.tuning.measurements_retried",
                        {{"outcome", pfs::runOutcomeName(failed.outcome)}})
          .add();
    }
  };

  // --- crash-safe session journal ------------------------------------------
  // The header binds the journal file to this exact session; resuming with a
  // different workload / job shape / seed / model is refused. The initial
  // run is never journaled (darshan::characterize needs the full RunResult,
  // which the journal does not carry) — it is simply re-executed on resume,
  // which is deterministic and therefore harmless.
  if (options_.journal != nullptr) {
    std::uint64_t bytes = 0;
    for (const std::vector<pfs::IoOp>& program : job.ranks) {
      for (const pfs::IoOp& op : program) {
        if (op.kind == pfs::OpKind::Read || op.kind == pfs::OpKind::Write) {
          bytes += op.size;
        }
      }
    }
    util::Json header = util::Json::makeObject();
    header.set("type", "header");
    header.set("workload", job.name);
    header.set("ranks", static_cast<std::int64_t>(job.rankCount()));
    header.set("files", static_cast<std::int64_t>(job.files.size()));
    header.set("ops", static_cast<std::int64_t>(job.totalOps()));
    header.set("bytes", static_cast<std::int64_t>(bytes));
    header.set("seed", static_cast<std::int64_t>(options_.seed));
    header.set("agent_model", options_.agent.model.name);
    header.set("agent_seed", static_cast<std::int64_t>(options_.agent.seed));
    header.set("max_attempts", static_cast<std::int64_t>(options_.agent.maxAttempts));
    header.set("analysis_model", options_.analysisModel.name);
    header.set("fallback_model", options_.fallbackModel.name);
    header.set("sanitizer", agents::sanitizerModeName(options_.sanitizer));
    const faults::FaultPlan* plan = simulator_.options().faults;
    header.set("faults", plan == nullptr ? std::string{} : plan->describe());
    options_.journal->bind(header);
  }

  // Journal-aware measurement: every tool-loop simulator run gets a
  // monotonic index. A journaled index replays instead of re-running when it
  // measured the same config with the same seed (a session whose decisions
  // changed, e.g. under a different rule set, measures afresh); a fresh run
  // is recorded before its result is acted on, so a crash at any point
  // resumes bit-identically. The measurement cap is the deterministic
  // stand-in for that crash.
  std::size_t measIndex = 0;
  std::size_t freshRuns = 0;
  const auto measure = [&](const pfs::PfsConfig& cfg,
                           std::uint64_t seed) -> pfs::RunResult {
    const std::size_t index = measIndex++;
    if (options_.journal != nullptr) {
      const auto replayed = options_.journal->replay(index);
      if (replayed && replayed->config == cfg && replayed->seed == seed) {
        ++result.resilience.journalReplayedMeasurements;
        pfs::RunResult run;
        run.wallSeconds = replayed->wallSeconds;
        run.rawWallSeconds = replayed->wallSeconds;
        run.outcome = runOutcomeByName(replayed->outcome);
        run.failureReason = replayed->failureReason;
        return run;
      }
    }
    if (options_.maxMeasurements != 0 && freshRuns >= options_.maxMeasurements) {
      throw SessionInterrupted("measurement cap (" +
                               std::to_string(options_.maxMeasurements) +
                               ") reached at measurement " + std::to_string(index));
    }
    pfs::RunResult run = simulator_.run(job, cfg, seed, limits);
    ++freshRuns;
    if (options_.journal != nullptr) {
      options_.journal->recordMeasurement(
          index, JournaledMeasurement{run.wallSeconds, pfs::runOutcomeName(run.outcome),
                                      run.failureReason, cfg, seed});
    }
    return run;
  };

  // --- initial run with the default configuration --------------------------
  obs::Tracer::Span initialSpan = obs::beginSpan(tracer, "tuning", "iteration:0");
  pfs::RunResult initial = simulator_.run(job, defaultConfig, seedBase, limits);
  if (!initial.ok()) {
    // One re-measure with a perturbed seed: transient fault windows often
    // miss the retried run; a systemic fault will fail it again.
    noteRetriedMeasurement(initial);
    result.transcript.add("system", "initial run failed",
                          initial.failureReason + " — re-measuring once.");
    initial = simulator_.run(job, defaultConfig, util::mix64(seedBase, 0xF000), limits);
  }
  if (initialSpan.active()) {
    initialSpan.arg("kind", util::Json("default-run"));
    initialSpan.arg("seconds", util::Json(initial.wallSeconds));
    initialSpan.arg("outcome", util::Json(pfs::runOutcomeName(initial.outcome)));
    initialSpan.end();
  }
  if (!initial.ok()) {
    // Without a trustworthy baseline no attempt can be judged; end the run
    // cleanly instead of tuning against a corrupted reference.
    result.endReason = "initial measurement failed: " + initial.failureReason;
    result.transcript.add("system", "tuning aborted", result.endReason);
    if (registry != nullptr) {
      registry->counter("core.tuning.aborted_runs").add();
    }
    return result;
  }
  result.defaultSeconds = initial.wallSeconds;
  result.iterationSeconds.push_back(initial.wallSeconds);
  result.transcript.add("system", "initial run",
                        "default configuration: " +
                            util::formatSeconds(initial.wallSeconds));

  // --- Darshan -> dataframes -> Analysis Agent ------------------------------
  std::optional<df::DarshanTables> tables;
  std::optional<agents::AnalysisAgent> analysis;
  const agents::IoReport* reportPtr = nullptr;
  if (options_.agent.useAnalysis) {
    const darshan::DarshanLog log = darshan::characterize(job, initial, seedBase);
    tables = df::tablesFromLog(log);
    analysis.emplace(*tables, options_.analysisModel, result.meter, result.transcript);
    result.report = analysis->initialReport();
    result.hasReport = true;
    reportPtr = &result.report;
  } else {
    result.transcript.add("system", "ablation",
                          "Analysis Agent removed: no I/O report available.");
  }

  // --- cross-run memory recall (warm start) --------------------------------
  // The recalled rules join the caller's rule set for *matching only* (a
  // local copy): learned rules still merge into the caller's set below, so
  // memory never mutates the global rule asset behind the caller's back.
  std::optional<WarmStartHint> hint;
  rules::RuleSet combinedRules;
  const rules::RuleSet* agentRules = globalRules;
  if (options_.warmStart != nullptr && reportPtr != nullptr) {
    hint = options_.warmStart->warmStart(*reportPtr);
    if (hint) {
      result.warmStarted = true;
      result.warmStartSimilarity = hint->similarity;
      result.warmStartSources = hint->sourceIds;
      if (globalRules != nullptr) {
        combinedRules = *globalRules;
      }
      (void)combinedRules.merge(hint->rules.rules());
      agentRules = &combinedRules;
      result.transcript.add("system", "warm start", hint->provenance);
      if (registry != nullptr) {
        registry->counter("core.warm_start.recalled").add();
      }
    } else if (registry != nullptr) {
      registry->counter("core.warm_start.miss").add();
    }
  }

  // --- Tuning Agent tool loop -----------------------------------------------
  // The inference boundary: one fault model derived from the same plan that
  // drives the simulator's injector (simulator-side kinds are ignored here,
  // LLM kinds there), behind a retrying, circuit-breaking client. With no
  // LLM faults in the plan the client is pass-through and clean runs stay
  // bit-identical.
  const faults::FaultPlan* faultPlan = simulator_.options().faults;
  const llm::LlmFaultModel llmFaults =
      faultPlan != nullptr ? llm::LlmFaultModel{*faultPlan} : llm::LlmFaultModel{};
  llm::LlmClient llmClient{&llmFaults, result.meter, registry};

  std::map<std::string, llm::ParamKnowledge> knowledge = buildKnowledge();
  std::vector<std::string> knownKnobs;
  knownKnobs.reserve(knowledge.size());
  for (const auto& [name, k] : knowledge) {
    knownKnobs.push_back(name);
  }
  const agents::ActionSanitizer sanitizer{std::move(knownKnobs),
                                          simulator_.boundsContext(),
                                          options_.sanitizer, registry};

  agents::TuningAgent agent{options_.agent, std::move(knowledge),
                            simulator_.boundsContext(), agentRules, llmClient,
                            result.transcript};
  if (hint) {
    agent.primeWarmStart(hint->config,
                         "Begin from the best configuration recorded for a "
                         "similar workload in the experience store (" +
                             hint->provenance + ").");
  }
  agent.observeInitialRun(reportPtr, initial.wallSeconds, defaultConfig);

  // Guard: tool loop is bounded by attempts + questions + repairs, with
  // extra headroom for failed / escalated decisions when LLM chaos is on.
  const int maxToolCalls =
      options_.agent.maxAttempts * 2 + 8 + (llmFaults.empty() ? 0 : 12);
  int failedDecisions = 0;
  bool agentAbandoned = false;
  for (int call = 0; call < maxToolCalls; ++call) {
    // One span per agent iteration: the tool decision plus whatever it
    // triggered (analysis follow-up or configuration attempt).
    obs::Tracer::Span iterSpan = obs::beginSpan(
        tracer, "tuning", "iteration:" + std::to_string(result.iterationSeconds.size()));
    const agents::TuningAgent::Action action = agent.decide();
    if (!action.delivered) {
      // The model call behind the decision failed; the agent rolled its
      // state back, so the decision will be reproduced on the next call.
      // This is where the resilience ladder climbs: bounded in-call retries
      // already happened inside LlmClient, so repeated failures here mean
      // the model (or the provider) is down — escalate.
      const llm::CallOutcome& outcome = agent.lastOutcome();
      ++result.resilience.undeliveredDecisions;
      ++failedDecisions;
      iterSpan.arg("kind", util::Json("undelivered"));
      result.transcript.add(
          "system", "llm call failed",
          outcome.breakerOpen
              ? "circuit breaker open for " + agent.model().name +
                    " — call short-circuited"
              : std::string{"model call failed ("} +
                    llm::callFaultName(outcome.lastFault) + ") after " +
                    std::to_string(outcome.retries) + " retries");
      if (outcome.breakerOpen || failedDecisions >= 4) {
        if (result.resilienceRung == "primary") {
          result.resilienceRung = "fallback-model";
          agent.switchModel(options_.fallbackModel);
          failedDecisions = 0;
          result.transcript.add("system", "resilience ladder",
                                "escalating to fallback model " +
                                    options_.fallbackModel.name);
          if (registry != nullptr) {
            registry->counter("core.resilience.escalations",
                              {{"rung", "fallback-model"}})
                .add();
          }
          continue;
        }
        agentAbandoned = true;
        result.endReason = "agent abandoned: LLM unavailable";
        result.transcript.add("system", "resilience ladder",
                              "fallback model unusable too — abandoning the "
                              "agent loop for the rule-derived baseline");
        if (registry != nullptr) {
          registry->counter("core.resilience.escalations",
                            {{"rung", "rule-baseline"}})
              .add();
        }
        break;
      }
      continue;
    }
    failedDecisions = 0;
    if (action.kind == agents::TuningAgent::ActionKind::EndTuning) {
      iterSpan.arg("kind", util::Json("end-tuning"));
      result.endReason = action.rationale;
      break;
    }
    if (action.kind == agents::TuningAgent::ActionKind::AskAnalysis) {
      iterSpan.arg("kind", util::Json("ask-analysis"));
      std::string answer = analysis ? analysis->answerFollowUp(action.question)
                                    : "(no analysis agent available)";
      if (action.staleAnalysis) {
        // Content-level fault: the answer arrives from a stale cache. The
        // marker degrades the agent's working context instead of failing
        // the call — exactly the quiet corruption a sanitizer cannot catch.
        ++result.resilience.staleAnalyses;
        answer = "[cached from an earlier session; may not reflect this run] " +
                 answer;
        result.transcript.add("system", "stale analysis",
                              "the analysis answer was served from a stale cache");
        if (registry != nullptr) {
          registry->counter("agent.llm.stale_analyses").add();
        }
      }
      agent.observeAnalysisAnswer(action.question, answer);
      continue;
    }
    // Configuration Runner tool: sanitize the raw payload, validate, then
    // execute on the system.
    const agents::SanitizeVerdict verdict = sanitizer.sanitize(action, agent.bestConfig());
    if (!verdict.clean()) {
      result.resilience.sanitizerIssues += verdict.issues.size();
      for (const agents::SanitizeIssue& issue : verdict.issues) {
        switch (issue.kind) {
          case agents::SanitizeIssueKind::OutOfRange:
            ++result.resilience.clampedValues;
            break;
          case agents::SanitizeIssueKind::UnknownKnob:
          case agents::SanitizeIssueKind::Contradictory:
            ++result.resilience.rejectedMoves;
            break;
          case agents::SanitizeIssueKind::DuplicateMove:
            break;
        }
      }
      result.transcript.add("sanitizer",
                            std::string{"payload issues ("} +
                                agents::sanitizerModeName(sanitizer.mode()) + ")",
                            verdict.describe());
    }
    const pfs::PfsConfig& execConfig = verdict.config;
    if (iterSpan.active()) {
      iterSpan.arg("kind", util::Json("attempt"));
      iterSpan.arg("config", util::Json(execConfig.diffAgainst(defaultConfig)));
    }
    const auto problems = pfs::validateConfig(execConfig, simulator_.boundsContext());
    if (!problems.empty()) {
      iterSpan.arg("invalid", util::Json(util::join(problems, "; ")));
      agent.observeRunResult(0.0, false, util::join(problems, "; "));
      result.iterationSeconds.push_back(result.iterationSeconds.back());
      continue;
    }
    pfs::RunResult run =
        measure(execConfig, util::mix64(seedBase, result.iterationSeconds.size()));
    if (!run.ok()) {
      noteRetriedMeasurement(run);
      result.transcript.add("system", "run failed",
                            run.failureReason + " — re-measuring once.");
      run = measure(execConfig,
                    util::mix64(seedBase, 0xF001 + result.iterationSeconds.size()));
    }
    iterSpan.arg("seconds", util::Json(run.wallSeconds));
    iterSpan.arg("outcome", util::Json(pfs::runOutcomeName(run.outcome)));
    if (!run.ok()) {
      // Both measurements failed: skip this configuration entirely. The
      // attempt is recorded as unmeasured and the best-so-far is untouched.
      if (registry != nullptr) {
        registry->counter("core.tuning.measurements_skipped").add();
      }
      agent.observeMeasurementFailure(run.failureReason);
      result.iterationSeconds.push_back(result.iterationSeconds.back());
      continue;
    }
    agent.observeRunResult(run.wallSeconds, true, {});
    result.iterationSeconds.push_back(run.wallSeconds);
  }
  if (result.endReason.empty()) {
    result.endReason = "attempt budget exhausted";
  }

  result.attempts = agent.attempts();
  result.bestConfig = agent.bestConfig();
  result.bestSeconds = agent.bestSeconds();

  // --- ladder rungs 3/4: rule-derived baseline, then the safe default -------
  if (agentAbandoned) {
    const pfs::PfsConfig baseline =
        ruleBaselineConfig(reportPtr, agentRules, simulator_.boundsContext());
    if (baseline == defaultConfig) {
      result.resilienceRung = "safe-default";
      result.transcript.add("system", "resilience ladder",
                            "no rule evidence to act on — staying on the safe "
                            "default configuration");
    } else {
      pfs::RunResult run = measure(baseline, util::mix64(seedBase, 0xBA5E));
      if (!run.ok()) {
        noteRetriedMeasurement(run);
        run = measure(baseline, util::mix64(seedBase, 0xBA5F));
      }
      agents::Attempt attempt;
      attempt.config = baseline;
      attempt.rationale =
          "Rule-derived baseline applied by the resilience ladder (no model "
          "available).";
      if (run.ok()) {
        attempt.seconds = run.wallSeconds;
        result.iterationSeconds.push_back(run.wallSeconds);
      } else {
        attempt.valid = false;
        attempt.measurementFailed = true;
        attempt.error = run.failureReason;
        result.iterationSeconds.push_back(result.iterationSeconds.back());
      }
      const bool adopted = run.ok() && run.wallSeconds < result.bestSeconds;
      if (adopted) {
        result.bestConfig = baseline;
        result.bestSeconds = run.wallSeconds;
      }
      result.resilienceRung = adopted ? "rule-baseline" : "safe-default";
      result.transcript.add(
          "system", "resilience ladder",
          adopted ? "rule-derived baseline measured " +
                        util::formatSeconds(run.wallSeconds) + " — adopted"
                  : "rule-derived baseline did not beat the incumbent — "
                    "keeping the safe default");
      result.attempts.push_back(std::move(attempt));
    }
  }

  result.resilience.llmCalls = llmClient.callsIssued();
  result.resilience.llmWastedAttempts = llmClient.wastedAttempts();
  result.resilience.llmFailedCalls = llmClient.failedCalls();
  result.resilience.breakerTrips = llmClient.breakerTrips();
  result.resilience.backoffSeconds = llmClient.backoffSeconds();

  // --- staleness verdict on the recalled config -----------------------------
  if (hint) {
    bool judged = false;
    bool regressed = false;
    bool confirmed = false;
    for (const agents::Attempt& attempt : result.attempts) {
      if (!attempt.warmStart) {
        continue;
      }
      if (attempt.measurementFailed) {
        break;  // never judged: a fault ate the run, not the memory's fault
      }
      judged = true;
      if (!attempt.valid) {
        // The recalled config no longer validates on this system.
        regressed = true;
      } else {
        regressed = attempt.seconds > result.defaultSeconds;
        confirmed = !regressed && result.bestSeconds > 0 &&
                    attempt.seconds <= result.bestSeconds * 1.05;
      }
      break;
    }
    if (judged) {
      result.warmStartVerdict = regressed   ? WarmStartVerdict::Regressed
                                : confirmed ? WarmStartVerdict::Confirmed
                                            : WarmStartVerdict::None;
      if (registry != nullptr) {
        registry->counter("core.warm_start.outcomes",
                          {{"kind", regressed   ? "regressed"
                            : confirmed ? "confirmed"
                                        : "neutral"}})
            .add();
      }
    }
  }

  // --- Reflect & Summarize ---------------------------------------------------
  result.learnedRules = agent.reflectAndSummarize();
  if (!result.learnedRules.empty()) {
    rules::RuleSet learnedSet;
    for (const rules::Rule& rule : result.learnedRules) {
      learnedSet.add(rule);
    }
    result.transcript.add("tuning-agent", "Reflect & Summarize",
                          learnedSet.toJson().dump(2));
  }
  if (globalRules != nullptr) {
    // Outcome pruning first (§4.4.2: alternatives that failed are dropped),
    // then merge the new rules.
    if (result.hasReport) {
      for (const agents::NegativeFinding& finding : agent.negativeFindings()) {
        (void)globalRules->dropNegative(finding.parameter, result.report.context,
                                        finding.direction);
      }
    }
    const std::string mergeReport = globalRules->merge(result.learnedRules);
    if (!mergeReport.empty()) {
      result.transcript.add("tuning-agent", "rule set merge", mergeReport);
    }
  }

  if (tuneSpan.active()) {
    tuneSpan.arg("default_seconds", util::Json(result.defaultSeconds));
    tuneSpan.arg("best_seconds", util::Json(result.bestSeconds));
    tuneSpan.arg("attempts", util::Json(static_cast<std::int64_t>(result.attempts.size())));
    tuneSpan.arg("end_reason", util::Json(result.endReason));
  }
  if (obs::CounterRegistry* counters = simulator_.counters()) {
    counters->counter("core.tuning.runs").add();
    counters->counter("core.tuning.attempts").add(static_cast<double>(result.attempts.size()));
    counters->histogram("core.tuning.best_speedup").observe(result.bestSpeedup());
  }
  return result;
}

std::size_t TuningRunResult::iterationsToWithin(double tolerance,
                                                double targetSeconds) const {
  const double target = targetSeconds > 0.0 ? targetSeconds : bestSeconds;
  if (target <= 0.0) {
    return attempts.size() + 1;
  }
  std::size_t iteration = 0;
  for (const agents::Attempt& attempt : attempts) {
    ++iteration;
    if (attempt.valid && !attempt.measurementFailed &&
        attempt.seconds <= target * (1.0 + tolerance)) {
      return iteration;
    }
  }
  return attempts.size() + 1;
}

util::Json TuningRunResult::toJson() const {
  util::Json root = util::Json::makeObject();
  root.set("workload", workload);
  root.set("default_seconds", defaultSeconds);
  root.set("best_seconds", bestSeconds);
  root.set("best_speedup", bestSpeedup());
  root.set("end_reason", endReason);
  root.set("best_config", bestConfig.toJson());
  root.set("warm_started", warmStarted);
  if (warmStarted) {
    root.set("warm_start_similarity", warmStartSimilarity);
    util::Json sources = util::Json::makeArray();
    for (const std::string& id : warmStartSources) {
      sources.push(id);
    }
    root.set("warm_start_sources", std::move(sources));
  }

  util::Json iterations = util::Json::makeArray();
  for (double s : iterationSeconds) {
    iterations.push(s);
  }
  root.set("iteration_seconds", std::move(iterations));

  util::Json attemptArr = util::Json::makeArray();
  for (const agents::Attempt& attempt : attempts) {
    util::Json a = util::Json::makeObject();
    a.set("config", attempt.config.toJson());
    a.set("seconds", attempt.seconds);
    a.set("valid", attempt.valid);
    if (attempt.warmStart) {
      a.set("warm_start", true);
    }
    if (!attempt.rationale.empty()) {
      a.set("rationale", attempt.rationale);
    }
    if (!attempt.error.empty()) {
      a.set("error", attempt.error);
    }
    attemptArr.push(std::move(a));
  }
  root.set("attempts", std::move(attemptArr));

  util::Json ruleArr = util::Json::makeArray();
  for (const rules::Rule& rule : learnedRules) {
    ruleArr.push(rule.toJson());
  }
  root.set("learned_rules", std::move(ruleArr));

  util::Json transcriptArr = util::Json::makeArray();
  for (const agents::TranscriptEvent& event : transcript.events()) {
    util::Json e = util::Json::makeObject();
    e.set("actor", event.actor);
    e.set("title", event.title);
    e.set("body", event.body);
    transcriptArr.push(std::move(e));
  }
  root.set("transcript", std::move(transcriptArr));

  const llm::UsageTotals totals = meter.totals();
  util::Json usage = util::Json::makeObject();
  usage.set("calls", static_cast<std::int64_t>(totals.calls));
  usage.set("input_tokens", static_cast<std::int64_t>(totals.inputTokens));
  usage.set("cached_tokens", static_cast<std::int64_t>(totals.cachedTokens));
  usage.set("output_tokens", static_cast<std::int64_t>(totals.outputTokens));
  usage.set("cache_hit_rate", totals.cacheHitRate());
  usage.set("wasted_calls", static_cast<std::int64_t>(totals.wastedCalls));
  usage.set("wasted_input_tokens",
            static_cast<std::int64_t>(totals.wastedInputTokens));
  usage.set("wasted_cached_tokens",
            static_cast<std::int64_t>(totals.wastedCachedTokens));
  usage.set("wasted_output_tokens",
            static_cast<std::int64_t>(totals.wastedOutputTokens));
  root.set("llm_usage", std::move(usage));

  root.set("resilience_rung", resilienceRung);
  util::Json res = util::Json::makeObject();
  res.set("llm_calls", static_cast<std::int64_t>(resilience.llmCalls));
  res.set("llm_wasted_attempts",
          static_cast<std::int64_t>(resilience.llmWastedAttempts));
  res.set("llm_failed_calls", static_cast<std::int64_t>(resilience.llmFailedCalls));
  res.set("breaker_trips", static_cast<std::int64_t>(resilience.breakerTrips));
  res.set("backoff_seconds", resilience.backoffSeconds);
  res.set("undelivered_decisions",
          static_cast<std::int64_t>(resilience.undeliveredDecisions));
  res.set("sanitizer_issues", static_cast<std::int64_t>(resilience.sanitizerIssues));
  res.set("clamped_values", static_cast<std::int64_t>(resilience.clampedValues));
  res.set("rejected_moves", static_cast<std::int64_t>(resilience.rejectedMoves));
  res.set("stale_analyses", static_cast<std::int64_t>(resilience.staleAnalyses));
  // journalReplayedMeasurements is deliberately NOT serialized: it is the
  // one stat that distinguishes a resumed session from an uninterrupted one,
  // and the KILL-RESUME law byte-compares this JSON across both.
  root.set("resilience", std::move(res));
  return root;
}

}  // namespace stellar::core
