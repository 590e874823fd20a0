#include "agents/tuning_agent.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace stellar::agents {

namespace {

/// Relative improvement considered real.
constexpr double kMinGain = 0.03;

std::uint64_t hashText(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : s) {
    h = util::mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

/// Geometric midpoint (the "cautious half step" of a weaker model).
std::int64_t geometricMid(std::int64_t from, std::int64_t to) {
  const double a = static_cast<double>(std::max<std::int64_t>(1, from));
  const double b = static_cast<double>(std::max<std::int64_t>(1, to));
  return static_cast<std::int64_t>(std::llround(std::sqrt(a * b)));
}

}  // namespace

TuningAgent::TuningAgent(TuningAgentOptions options,
                         std::map<std::string, llm::ParamKnowledge> knowledge,
                         pfs::BoundsContext bounds, const rules::RuleSet* globalRules,
                         llm::LlmClient& llm, Transcript& transcript)
    : opts_(std::move(options)),
      knowledge_(std::move(knowledge)),
      bounds_(bounds),
      globalRules_(globalRules),
      llm_(llm),
      transcript_(transcript),
      rng_(hashText(opts_.model.name, opts_.seed)) {
  // Static prompt prefix: the parameter sheet + global rules. This is what
  // keeps re-appearing verbatim across calls and therefore resolves from
  // the provider's prompt cache (§5.7).
  knowledgeDump_ = "You are a parallel file system tuning agent.\n"
                   "Tunable parameters:\n";
  for (const auto& [name, k] : knowledge_) {
    knowledgeDump_ += name + " in [" + std::to_string(k.minValue) + ", " +
                      std::to_string(k.maxValue) + "], default " +
                      std::to_string(k.defaultValue) + ": " +
                      (opts_.useDescriptions || k.source == llm::KnowledgeSource::ModelMemory
                           ? k.description + " " + k.ioImpact
                           : "(no description available)") +
                      "\n";
  }
  if (globalRules_ != nullptr && !globalRules_->empty()) {
    knowledgeDump_ += "\nAccumulated tuning rules:\n" + globalRules_->toJson().dump(2) +
                      "\n";
  }
}

std::int64_t TuningAgent::believedMax(const std::string& param) const {
  const auto it = knowledge_.find(param);
  return it == knowledge_.end() ? 0 : it->second.maxValue;
}

std::int64_t TuningAgent::believedMin(const std::string& param) const {
  const auto it = knowledge_.find(param);
  return it == knowledge_.end() ? 0 : it->second.minValue;
}

void TuningAgent::primeWarmStart(const pfs::PfsConfig& config, std::string note) {
  warmStartConfig_ = config;
  warmStartNote_ = std::move(note);
}

void TuningAgent::observeInitialRun(const IoReport* report, double defaultSeconds,
                                    const pfs::PfsConfig& defaultConfig) {
  if (report != nullptr) {
    report_ = *report;
  }
  defaultSeconds_ = defaultSeconds;
  bestSeconds_ = defaultSeconds;
  defaultConfig_ = defaultConfig;
  bestConfig_ = defaultConfig;

  // Decide which follow-ups are worth the Analysis? tool (the Fig. 10 case
  // study asks for file-size detail and meta/data ratios on MDWorkbench).
  if (report_) {
    const rules::WorkloadContext& ctx = report_->context;
    if (ctx.metaOpShare > 0.3) {
      pendingQuestions_.push_back(FollowUpQuestion::MetaToDataRatio);
    }
    if (ctx.smallFileShare > 0.3 || ctx.metaOpShare > 0.5) {
      pendingQuestions_.push_back(FollowUpQuestion::FileSizeDistribution);
    }
    if (pendingQuestions_.empty() && ctx.sharedFileShare > 0.0 &&
        ctx.sharedFileShare < 1.0) {
      pendingQuestions_.push_back(FollowUpQuestion::SharingStructure);
    }
    if (pendingQuestions_.size() > 2) {
      pendingQuestions_.resize(2);
    }
  }

  buildPlan();

  // §4.4.2 outcome safety: when matched rules seeded the first hypothesis,
  // the first playbook group re-tests its moves from the *default*
  // configuration instead of stacking on the rule-derived best. A rule
  // bundle that wins by a hair (learned on a merely similar workload) no
  // longer drags every later attempt through its knob choices: the run
  // keeps one cold-style exploration path, and the best-of comparison
  // decides which base deserved to win.
  bool ruleLed = false;
  for (MoveGroup& group : plan_) {
    if (group.warmStart) {
      continue;
    }
    const bool ruleGroup = std::any_of(
        group.moves.begin(), group.moves.end(),
        [](const Move& move) { return move.fromRule; });
    if (ruleGroup) {
      ruleLed = true;
    } else if (ruleLed) {
      group.fromDefaults = true;
      break;
    }
  }
}

// ------------------------------------------------------------- planning --

void TuningAgent::planFromRules(std::vector<std::string>& covered) {
  if (globalRules_ == nullptr || globalRules_->empty() || !report_) {
    return;
  }
  const auto matched = globalRules_->match(report_->context, 0.7);
  if (matched.empty()) {
    return;
  }
  MoveGroup primary;
  primary.hypothesis =
      "Apply the accumulated rules whose tuning context matches this "
      "workload's I/O behaviour.";
  std::vector<const rules::Rule*> deferredAlternatives;
  for (const rules::Rule* rule : matched) {
    if (std::find(covered.begin(), covered.end(), rule->parameter) != covered.end()) {
      deferredAlternatives.push_back(rule);
      continue;
    }
    Move move;
    move.param = rule->parameter;
    move.direction = rule->direction;
    move.fromRule = true;
    switch (rule->direction) {
      case rules::Direction::SetMax:
        move.value = believedMax(rule->parameter);
        break;
      case rules::Direction::SetMin:
        move.value = believedMin(rule->parameter);
        break;
      case rules::Direction::SetValue:
        move.value = rule->value;
        break;
      case rules::Direction::Increase: {
        const auto current = defaultConfig_.get(rule->parameter).value_or(1);
        move.value = std::min(believedMax(rule->parameter), current * 8);
        break;
      }
      case rules::Direction::Decrease: {
        const auto current = defaultConfig_.get(rule->parameter).value_or(1);
        move.value = std::max(believedMin(rule->parameter), current / 8);
        break;
      }
    }
    move.rationale = "rule: " + rule->description;
    primary.moves.push_back(std::move(move));
    covered.push_back(rule->parameter);
  }
  if (!primary.moves.empty()) {
    plan_.push_back(std::move(primary));
  }
  // Alternatives for already-covered parameters become their own later
  // hypothesis, so negative outcomes can prune them (§4.4.2).
  for (const rules::Rule* rule : deferredAlternatives) {
    MoveGroup alt;
    alt.hypothesis = "Try the alternative guidance recorded for " + rule->parameter + ".";
    Move move;
    move.param = rule->parameter;
    move.direction = rule->direction;
    move.value = rule->direction == rules::Direction::SetValue
                     ? rule->value
                     : believedMax(rule->parameter);
    move.rationale = "alternative rule: " + rule->description;
    move.fromRule = true;
    alt.moves.push_back(std::move(move));
    plan_.push_back(std::move(alt));
  }
}

std::optional<TuningAgent::Move> TuningAgent::shapeMove(Move move) {
  const auto it = knowledge_.find(move.param);
  if (it == knowledge_.end()) {
    return std::nullopt;  // the agent does not know this parameter exists
  }
  const llm::ParamKnowledge& k = it->second;

  // Rule-derived moves carry validated guidance; semantics gating applies
  // only to playbook moves reasoned from parameter descriptions.
  if (!move.fromRule && !k.semanticallyAccurate()) {
    return misguidedMove(move.param);
  }

  // A hallucinated range clamps the proposal into the *believed* bounds: a
  // wrong-high maximum yields invalid values that fail validation (the
  // paper's missing-ranges failure mode); a wrong-low maximum cripples the
  // tuning step. Accurate ranges are applied dependent-aware at synthesis.
  if (!k.rangeAccurate()) {
    move.value = std::clamp(move.value, k.minValue, k.maxValue);
  }

  // Reasoning-quality softening: weaker models take cautious half steps.
  if (!move.fromRule && rng_.chance(1.0 - opts_.model.reasoningQuality)) {
    const auto current = defaultConfig_.get(move.param).value_or(move.value);
    if (move.value > current) {
      move.value = std::max<std::int64_t>(1, geometricMid(current, move.value));
      move.rationale += " (proceeding cautiously with a partial step)";
    }
  }
  return move;
}

TuningAgent::Move TuningAgent::misguidedMove(const std::string& param) {
  // The flawed interpretations the paper reports when descriptions are
  // missing (§5.4): plausible-sounding but mechanically wrong adjustments.
  Move move;
  move.param = param;
  move.misguided = true;
  const bool metaDominated = report_ && report_->context.metaOpShare > 0.5;
  if (param == "lov.stripe_count") {
    move.direction = rules::Direction::SetMax;
    move.value = believedMax(param);
    move.rationale =
        metaDominated
            ? "setting the parent directory's stripe count to the maximum "
              "should distribute the files more evenly across all OSTs"
            : "maximum striping should always engage every storage target";
  } else if (param == "ldlm.lru_size") {
    move.direction = rules::Direction::Decrease;
    move.value = std::max<std::int64_t>(believedMin(param), 64);
    move.rationale =
        "a smaller lock cache should reduce client memory pressure and speed "
        "up lock processing";
  } else if (param == "llite.statahead_max") {
    move.direction = rules::Direction::SetMin;
    move.value = believedMin(param);
    move.rationale =
        "disabling speculative stat requests should remove wasted metadata "
        "traffic";
  } else {
    // Generic misconception: crank it up regardless of workload.
    move.direction = rules::Direction::Increase;
    const auto current = defaultConfig_.get(param).value_or(1);
    move.value = std::min(believedMax(param), std::max<std::int64_t>(current * 16, 16));
    move.rationale = "increasing " + param + " should improve performance";
  }
  return move;
}

void TuningAgent::planMetadataPlaybook(const std::vector<std::string>& covered,
                                       bool aggressive) {
  const auto isCovered = [&covered](const std::string& p) {
    return std::find(covered.begin(), covered.end(), p) != covered.end();
  };
  const std::uint64_t files = report_ ? std::max<std::uint64_t>(report_->fileCount, 1000)
                                      : 100000;

  MoveGroup primary;
  primary.hypothesis =
      "The workload is metadata-intensive over many small files: make lock "
      "caching cover the working set and pipeline metadata RPCs.";
  const auto add = [&](Move m) {
    if (isCovered(m.param)) {
      return;
    }
    if (auto shaped = shapeMove(std::move(m))) {
      primary.moves.push_back(std::move(*shaped));
    }
  };
  add(Move{"ldlm.lru_size", rules::Direction::SetValue,
           static_cast<std::int64_t>(files * 2),
           "size the lock LRU above the per-client working set so re-stat, "
           "re-open and cached reads stay local",
           false, false});
  add(Move{"llite.statahead_max", rules::Direction::SetValue, 1024,
           "pipeline the per-file stat scans via stat-ahead", false, false});
  add(Move{"mdc.max_rpcs_in_flight", rules::Direction::SetValue, 64,
           "raise metadata RPC concurrency so stat-ahead and the many "
           "processes per node are not serialized",
           false, false});
  add(Move{"mdc.max_mod_rpcs_in_flight", rules::Direction::SetValue, 63,
           "raise modifying-RPC concurrency for the create/unlink phases "
           "(must stay below mdc.max_rpcs_in_flight)",
           false, false});
  if (!primary.moves.empty()) {
    plan_.push_back(std::move(primary));
  }

  if (aggressive) {
    MoveGroup more;
    more.hypothesis =
        "The first adjustment helped; push the same levers further to probe "
        "for additional gains.";
    const auto addMore = [&](Move m) {
      if (auto shaped = shapeMove(std::move(m))) {
        more.moves.push_back(std::move(*shaped));
      }
    };
    addMore(Move{"llite.statahead_max", rules::Direction::SetValue, 4096,
                 "deepen the stat-ahead pipeline", false, false});
    addMore(Move{"mdc.max_rpcs_in_flight", rules::Direction::SetValue, 128,
                 "probe higher metadata concurrency", false, false});
    addMore(Move{"mdc.max_mod_rpcs_in_flight", rules::Direction::SetValue, 127,
                 "keep the modifying cap one below the total cap", false, false});
    if (!more.moves.empty()) {
      plan_.push_back(std::move(more));
    }
  }
}

void TuningAgent::planLargeSequentialPlaybook(const std::vector<std::string>& covered,
                                              bool aggressive) {
  const auto isCovered = [&covered](const std::string& p) {
    return std::find(covered.begin(), covered.end(), p) != covered.end();
  };
  const std::uint64_t dominant =
      report_ ? std::max<std::uint64_t>(report_->context.dominantAccessSize, util::kMiB)
              : 16 * util::kMiB;
  const bool readsMatter = !report_ || report_->context.readShare > 0.2;

  MoveGroup primary;
  primary.hypothesis =
      "The workload streams large records: stripe wide for aggregate "
      "bandwidth, enlarge RPCs, and let write-back absorb bursts.";
  const auto add = [&](Move m) {
    if (isCovered(m.param)) {
      return;
    }
    if (auto shaped = shapeMove(std::move(m))) {
      primary.moves.push_back(std::move(*shaped));
    }
  };
  add(Move{"lov.stripe_count", rules::Direction::SetMax, believedMax("lov.stripe_count"),
           "stripe shared large files across every OST to aggregate bandwidth",
           false, false});
  add(Move{"lov.stripe_size", rules::Direction::SetValue,
           static_cast<std::int64_t>(std::clamp<std::uint64_t>(
               dominant, util::kMiB, 64 * util::kMiB)),
           "match the stripe size to the application's transfer size so each "
           "bulk lands contiguously on one OST",
           false, false});
  add(Move{"osc.max_pages_per_rpc", rules::Direction::SetMax,
           believedMax("osc.max_pages_per_rpc"),
           "carry the large transfers in maximal RPCs to amortize per-RPC "
           "costs",
           false, false});
  add(Move{"osc.max_dirty_mb", rules::Direction::SetValue, 512,
           "give write-back enough budget that writers run ahead of the OSTs",
           false, false});
  if (readsMatter) {
    add(Move{"llite.max_read_ahead_mb", rules::Direction::SetValue, 1024,
             "raise the client readahead budget for the streaming read phase",
             false, false});
    add(Move{"llite.max_read_ahead_per_file_mb", rules::Direction::SetValue, 512,
             "let each sequential stream grow a deep readahead window (half "
             "the client budget)",
             false, false});
  }
  if (!primary.moves.empty()) {
    plan_.push_back(std::move(primary));
  }

  if (aggressive) {
    MoveGroup more;
    more.hypothesis =
        "Bandwidth improved; probe concurrency and deeper write-back for the "
        "remaining headroom.";
    const auto addMore = [&](Move m) {
      if (auto shaped = shapeMove(std::move(m))) {
        more.moves.push_back(std::move(*shaped));
      }
    };
    addMore(Move{"osc.max_rpcs_in_flight", rules::Direction::SetValue, 32,
                 "more RPCs in flight keep the transfer pipeline full", false,
                 false});
    addMore(Move{"osc.max_dirty_mb", rules::Direction::SetValue, 1024,
                 "deepen the write-back budget further", false, false});
    addMore(Move{"lov.stripe_size", rules::Direction::SetValue,
                 static_cast<std::int64_t>(std::clamp<std::uint64_t>(
                     dominant * 4, 4 * util::kMiB, 256 * util::kMiB)),
                 "probe a stripe larger than the transfer size: fewer stripe "
                 "boundaries keep each OST's object contiguous under "
                 "many-writer interleaving",
                 false, false});
    if (!more.moves.empty()) {
      plan_.push_back(std::move(more));
    }
  }
}

void TuningAgent::planSmallRandomPlaybook(const std::vector<std::string>& covered) {
  const auto isCovered = [&covered](const std::string& p) {
    return std::find(covered.begin(), covered.end(), p) != covered.end();
  };
  MoveGroup primary;
  primary.hypothesis =
      "The workload issues many small or random records to shared files: "
      "spread the load across OSTs and raise request concurrency.";
  const auto add = [&](Move m) {
    if (isCovered(m.param)) {
      return;
    }
    if (auto shaped = shapeMove(std::move(m))) {
      primary.moves.push_back(std::move(*shaped));
    }
  };
  add(Move{"lov.stripe_count", rules::Direction::SetMax, believedMax("lov.stripe_count"),
           "striping the shared file across all OSTs spreads the random "
           "records over every server",
           false, false});
  add(Move{"osc.max_rpcs_in_flight", rules::Direction::SetValue, 64,
           "small records need deep request concurrency to fill the servers",
           false, false});
  add(Move{"osc.max_dirty_mb", rules::Direction::SetValue, 256,
           "absorb write bursts in the client cache", false, false});
  if (!primary.moves.empty()) {
    plan_.push_back(std::move(primary));
  }
}

void TuningAgent::buildPlan() {
  plan_.clear();
  nextGroup_ = 0;

  // Cross-run memory leads: the recalled best configuration is trialed
  // before any planned hypothesis, so a faithful memory converges in one
  // Configuration Runner call and a stale one is found out immediately.
  // The values are prior *measured outcomes*, so they bypass the
  // hallucination gating that applies to description-reasoned moves
  // (fromRule = true), exactly like matched rules do.
  if (warmStartConfig_) {
    MoveGroup warm;
    warm.hypothesis = warmStartNote_;
    warm.warmStart = true;
    for (const std::string& name : pfs::PfsConfig::tunableNames()) {
      const auto target = warmStartConfig_->get(name);
      const auto def = defaultConfig_.get(name);
      if (target && def && *target != *def) {
        warm.moves.push_back(Move{name, rules::Direction::SetValue, *target,
                                  "recalled best value from prior experience on a "
                                  "similar workload",
                                  true, false});
      }
    }
    if (!warm.moves.empty()) {
      plan_.push_back(std::move(warm));
    }
  }

  std::vector<std::string> ruleCovered;

  planFromRules(ruleCovered);
  const bool rulesLed = !ruleCovered.empty();
  // Matched rules steer the *first* configuration, but they do not
  // suppress the playbook's own hypotheses: a learned value that is
  // suboptimal for this workload must remain refinable by later attempts
  // (duplicate configurations are skipped at decision time).
  std::vector<std::string> covered;

  if (!report_) {
    // No-Analysis ablation: without behavioural evidence the agent falls
    // back to generic large-file assumptions — the failure §5.4 describes.
    planLargeSequentialPlaybook(covered, /*aggressive=*/true);
    return;
  }

  const rules::WorkloadContext& ctx = report_->context;
  // Metadata-intensity means many metadata operations per byte moved: a
  // checkpoint writer that opens/closes around multi-MiB chunks has a high
  // op share but is still bandwidth-bound, so the payload size gates the
  // classification.
  const bool metaDominated =
      ctx.metaOpShare > 0.6 && ctx.dominantAccessSize < util::kMiB;
  const bool largeSeq =
      ctx.sequentialShare > 0.6 && ctx.dominantAccessSize >= util::kMiB;
  const bool mixed =
      !metaDominated && !largeSeq && ctx.metaOpShare > 0.25;

  if (metaDominated) {
    planMetadataPlaybook(covered, /*aggressive=*/!rulesLed);
    // Small-file data phases still move bytes; a mild data-side refinement
    // is the last hypothesis.
    if (ctx.totalBytes > 0) {
      MoveGroup refine;
      refine.hypothesis = "Refine the data path for the small-file payloads.";
      if (auto m = shapeMove(Move{"osc.max_rpcs_in_flight", rules::Direction::SetValue,
                                  32, "modest bulk-RPC concurrency for the small "
                                       "payload writes",
                                  false, false})) {
        refine.moves.push_back(std::move(*m));
      }
      if (!refine.moves.empty()) {
        plan_.push_back(std::move(refine));
      }
    }
    return;
  }
  if (largeSeq) {
    planLargeSequentialPlaybook(covered, /*aggressive=*/!rulesLed);
    return;
  }
  if (!mixed) {
    planSmallRandomPlaybook(covered);
    // Aggressive follow-up on concurrency.
    MoveGroup more;
    more.hypothesis = "Probe deeper concurrency for the random records.";
    if (auto m = shapeMove(Move{"osc.max_rpcs_in_flight", rules::Direction::SetValue,
                                128, "push in-flight RPCs further", false, false})) {
      more.moves.push_back(std::move(*m));
    }
    if (!more.moves.empty()) {
      plan_.push_back(std::move(more));
    }
    return;
  }
  // Mixed, multi-phase workload (the IO500 shape): combine both playbooks
  // with a compromise stripe size, then probe the data-side compromise —
  // this is where the agent can out-tune a static expert config by testing
  // both sides of the trade-off (§5.2's IO500 observation).
  planMetadataPlaybook(covered, /*aggressive=*/false);
  planLargeSequentialPlaybook(covered, /*aggressive=*/false);
  for (MoveGroup& group : plan_) {
    for (Move& move : group.moves) {
      if (move.param == "lov.stripe_size" && !move.fromRule) {
        move.value = 4 * util::kMiB;
        move.rationale =
            "compromise stripe size: large enough for the streaming phase, "
            "small enough for the strided small-record phase";
      }
    }
  }
  MoveGroup probe;
  probe.hypothesis =
      "Probe the other side of the phase trade-off: deeper data concurrency "
      "with a larger stripe for the streaming phase.";
  if (auto m = shapeMove(Move{"osc.max_rpcs_in_flight", rules::Direction::SetValue, 64,
                              "deep in-flight RPCs serve both the strided "
                              "small-record and streaming phases",
                              false, false})) {
    probe.moves.push_back(std::move(*m));
  }
  if (auto m = shapeMove(Move{"lov.stripe_size", rules::Direction::SetValue,
                              static_cast<std::int64_t>(8 * util::kMiB),
                              "test whether the streaming phase dominates enough "
                              "to justify a larger stripe",
                              false, false})) {
    probe.moves.push_back(std::move(*m));
  }
  if (!probe.moves.empty()) {
    plan_.push_back(std::move(probe));
  }
}

// ------------------------------------------------------------- decisions --

pfs::PfsConfig TuningAgent::synthesize(const MoveGroup& group,
                                       std::string& rationaleOut) const {
  pfs::PfsConfig cfg = group.fromDefaults ? defaultConfig_ : bestConfig_;
  rationaleOut = group.hypothesis + "\n";
  for (const Move& move : group.moves) {
    std::int64_t value = move.value;
    if (move.param == "lov.stripe_count" &&
        move.direction == rules::Direction::SetMax) {
      value = -1;  // the documented "all OSTs" spelling
    }
    (void)cfg.set(move.param, value);
    rationaleOut += "  - " + move.param + " := " + std::to_string(value) + " — " +
                    move.rationale + "\n";
  }
  // A knowledgeable agent keeps every parameter inside its documented
  // range, resolving dependent bounds against the configuration being
  // proposed (per-file readahead at half the budget, mod RPCs below the
  // cap). Parameters with hallucinated ranges keep their believed values —
  // possibly invalid.
  for (const std::string& name : pfs::PfsConfig::tunableNames()) {
    const auto itKnow = knowledge_.find(name);
    if (itKnow == knowledge_.end() || !itKnow->second.rangeAccurate()) {
      continue;
    }
    const auto boundsNow = pfs::paramBounds(name, cfg, bounds_);
    const auto value = cfg.get(name);
    if (boundsNow && value) {
      (void)cfg.set(name, std::clamp(*value, boundsNow->min, boundsNow->max));
    }
  }
  return cfg;
}

bool TuningAgent::recordPromptedCall(const std::string& output) {
  std::string prompt = knowledgeDump_;
  if (report_) {
    prompt += "\nI/O Report:\n" + report_->text;
  }
  if (!analysisNotes_.empty()) {
    prompt += "\nAdditional analysis:\n" + analysisNotes_;
  }
  prompt += "\nHistory:\n";
  for (const Attempt& attempt : attempts_) {
    prompt += attempt.rationale + " -> " +
              (attempt.valid ? util::formatSeconds(attempt.seconds) : "INVALID") + "\n";
  }
  lastOutcome_ = llm_.call(opts_.model, "tuning-agent", prompt, output);
  return lastOutcome_.ok;
}

void TuningAgent::fillEmitted(Action& action, const MoveGroup& group) const {
  for (const Move& move : group.moves) {
    // The payload carries the values as finally written (post-synthesis
    // clamping and the stripe_count=-1 spelling included).
    action.emitted.push_back(
        RawMove{move.param, action.config.get(move.param).value_or(move.value)});
  }
}

void TuningAgent::applyContentFaults(Action& action) {
  const llm::CallDirectives& d = lastOutcome_.directives;
  if (action.kind != ActionKind::RunConfig || !d.corrupted()) {
    return;
  }
  // Seeded independently of the planning RNG so chaos never perturbs the
  // decision sequence itself.
  const std::uint64_t h = util::mix64(
      hashText(opts_.model.name, opts_.seed),
      util::mix64(0xC022, static_cast<std::uint64_t>(attempts_.size())));
  if (d.outOfRange && !action.emitted.empty()) {
    // A believed-maximum overshoot: plausible in form, invalid in value.
    RawMove& mv = action.emitted[h % action.emitted.size()];
    if (mv.value >= 0) {  // leave the stripe_count=-1 spelling alone
      mv.value = std::max<std::int64_t>(mv.value, believedMax(mv.param)) * 8 + 7;
      (void)action.config.set(mv.param, mv.value);
    }
  }
  if (d.hallucinatedKnob) {
    // Plausible-but-nonexistent knob names (typos and invented tunables).
    static const char* kPhantoms[] = {
        "osc.max_rpcs_in_flght",
        "llite.readahead_turbo_mb",
        "lov.stripe_width",
        "mdc.batch_rpcs_in_flight",
    };
    const std::size_t pick = (h >> 17) % (sizeof kPhantoms / sizeof kPhantoms[0]);
    action.emitted.push_back(
        RawMove{kPhantoms[pick], static_cast<std::int64_t>(64 + (h >> 23) % 448)});
    // PfsConfig cannot hold an unknown knob, so only the raw payload sees
    // it — which is exactly where the sanitizer looks.
  }
}

TuningAgent::Action TuningAgent::decide() {
  // Minor loop: clarify the report before committing to a hypothesis.
  if (!pendingQuestions_.empty()) {
    Action action;
    action.kind = ActionKind::AskAnalysis;
    action.question = pendingQuestions_.front();
    pendingQuestions_.erase(pendingQuestions_.begin());
    action.rationale = "Requesting additional analysis before selecting "
                       "parameters to tune.";
    if (!recordPromptedCall(std::string{"Analysis? "} +
                            followUpQuestionText(action.question))) {
      pendingQuestions_.insert(pendingQuestions_.begin(), action.question);
      action.delivered = false;
      return action;
    }
    action.staleAnalysis = lastOutcome_.directives.staleAnalysis;
    return action;
  }

  const double bestGain =
      defaultSeconds_ > 0 ? 1.0 - bestSeconds_ / defaultSeconds_ : 0.0;

  // Stop early once gains are real and the last attempt added little
  // (§4.3.2: stop at diminishing returns after clear improvement). While
  // unexplored hypotheses remain, the agent keeps probing for at least
  // three attempts — a short plan (e.g. fully covered by matched rules)
  // is what legitimately ends a run after one or two.
  const bool planExhausted = nextGroup_ >= plan_.size() && !repairGroup_;
  if (!attempts_.empty() && bestGain > 0.15 &&
      (planExhausted || attempts_.size() >= 3)) {
    const Attempt& last = attempts_.back();
    const double lastGain =
        last.valid ? 1.0 - last.seconds / defaultSeconds_ : 0.0;
    if (lastGain < bestGain + kMinGain) {
      Action action;
      action.kind = ActionKind::EndTuning;
      action.rationale =
          "Performance improved " + util::formatDouble(bestGain * 100, 1) +
          "% over the default configuration and the last attempt added no "
          "further gain; the remaining hypotheses target parameters with "
          "minor expected impact, so further tuning would yield diminishing "
          "returns.";
      if (!recordPromptedCall(action.rationale)) {
        action.delivered = false;
        return action;
      }
      transcript_.add("tuning-agent", "End Tuning?", action.rationale);
      return action;
    }
  }

  const bool budgetLeft = static_cast<int>(attempts_.size()) < opts_.maxAttempts;
  if (budgetLeft && repairGroup_) {
    MoveGroup group = std::move(*repairGroup_);
    repairGroup_.reset();
    Action action;
    action.kind = ActionKind::RunConfig;
    action.config = synthesize(group, action.rationale);
    if (!recordPromptedCall(action.rationale)) {
      repairGroup_ = std::move(group);  // retry reproduces this decision
      action.delivered = false;
      return action;
    }
    fillEmitted(action, group);
    applyContentFaults(action);
    inFlight_ = std::move(group);
    transcript_.add("tuning-agent", "attempt " + std::to_string(attempts_.size() + 1),
                    action.rationale);
    return action;
  }
  while (budgetLeft && nextGroup_ < plan_.size()) {
    const std::size_t groupIndex = nextGroup_++;
    MoveGroup group = plan_[groupIndex];
    Action action;
    action.kind = ActionKind::RunConfig;
    action.config = synthesize(group, action.rationale);
    if (action.config == bestConfig_) {
      // This hypothesis proposes nothing new over the incumbent (e.g. a
      // playbook group whose values a matched rule already applied).
      continue;
    }
    if (!recordPromptedCall(action.rationale)) {
      nextGroup_ = groupIndex;  // retry reproduces this decision
      action.delivered = false;
      return action;
    }
    fillEmitted(action, group);
    applyContentFaults(action);
    inFlight_ = std::move(group);
    transcript_.add("tuning-agent", "attempt " + std::to_string(attempts_.size() + 1),
                    action.rationale);
    return action;
  }

  Action action;
  action.kind = ActionKind::EndTuning;
  action.rationale =
      attempts_.empty()
          ? "No applicable hypotheses were generated for this workload."
          : (bestGain > 0 ? "All hypotheses have been evaluated; best "
                            "configuration improves the default by " +
                                util::formatDouble(bestGain * 100, 1) + "%."
                          : "No configuration outperformed the default; ending "
                            "to avoid unproductive exploration.");
  if (!recordPromptedCall(action.rationale)) {
    action.delivered = false;
    return action;
  }
  transcript_.add("tuning-agent", "End Tuning?", action.rationale);
  return action;
}

void TuningAgent::observeAnalysisAnswer(FollowUpQuestion question,
                                        const std::string& answer) {
  // The answer joins the agent's working context (it re-appears verbatim
  // in every subsequent prompt, which is exactly what makes the provider's
  // prompt cache so effective in §5.7). The plan itself keys on the
  // report's structured features.
  analysisNotes_ += std::string{followUpQuestionText(question)} + "\n" + answer + "\n";
}

void TuningAgent::observeMeasurementFailure(const std::string& reason) {
  Attempt attempt;
  if (inFlight_) {
    std::string rationale;
    attempt.config = synthesize(*inFlight_, rationale);
    attempt.rationale = rationale;
    attempt.warmStart = inFlight_->warmStart;
  }
  attempt.valid = false;
  attempt.measurementFailed = true;
  attempt.error = reason;
  attempts_.push_back(std::move(attempt));
  transcript_.add("system", "measurement failed",
                  reason + " — result discarded, configuration not judged.");
  // Drop the group outright: no repair (the values were not rejected) and
  // no negative finding (the direction was not shown to regress).
  inFlight_.reset();
}

void TuningAgent::observeRunResult(double seconds, bool valid, const std::string& error) {
  Attempt attempt;
  if (inFlight_) {
    std::string rationale;
    attempt.config = synthesize(*inFlight_, rationale);
    attempt.rationale = rationale;
    attempt.warmStart = inFlight_->warmStart;
  }
  attempt.seconds = seconds;
  attempt.valid = valid;
  attempt.error = error;
  attempts_.push_back(attempt);

  if (!inFlight_) {
    return;
  }
  MoveGroup group = std::move(*inFlight_);
  inFlight_.reset();

  if (!valid) {
    transcript_.add("system", "run failed", error);
    // Repair: pull every move toward the default by a geometric half-step
    // (the agent cannot see the true bound; it backs off).
    MoveGroup repair;
    repair.hypothesis =
        "The previous configuration was rejected (" + error +
        "); retry with values backed off toward the defaults.";
    for (Move move : group.moves) {
      const auto def = defaultConfig_.get(move.param).value_or(1);
      move.value = geometricMid(def, move.value);
      move.rationale += " (backed off after rejection)";
      repair.moves.push_back(std::move(move));
    }
    repairGroup_ = std::move(repair);
    return;
  }

  transcript_.add("system", "run result",
                  util::formatSeconds(seconds) + " vs best " +
                      util::formatSeconds(bestSeconds_) + " (default " +
                      util::formatSeconds(defaultSeconds_) + ")");

  if (seconds < bestSeconds_) {
    std::string rationale;
    bestConfig_ = synthesize(group, rationale);
    bestSeconds_ = seconds;
    succeededGroups_.push_back(group);
  } else {
    // Regression: revert (bestConfig_ unchanged) and remember what failed.
    for (const Move& move : group.moves) {
      negativeFindings_.push_back(NegativeFinding{move.param, move.direction});
    }
  }
}

std::vector<rules::Rule> TuningAgent::reflectAndSummarize() const {
  std::vector<rules::Rule> learned;
  if (bestSeconds_ >= defaultSeconds_ * (1.0 - kMinGain)) {
    return learned;  // nothing worth generalizing
  }
  const rules::WorkloadContext context =
      report_ ? report_->context : rules::WorkloadContext{};

  for (const MoveGroup& group : succeededGroups_) {
    for (const Move& move : group.moves) {
      rules::Rule rule;
      rule.parameter = move.param;
      rule.context = context;
      rule.direction = move.direction;
      rule.value = move.value;
      // General guidance, explicitly free of application names (§4.4.1).
      rule.description =
          "For workloads with this I/O behaviour (" + context.describe() + "), " +
          move.rationale + ".";
      // Dedup within the learned set (later groups refine earlier ones).
      bool replaced = false;
      for (rules::Rule& existing : learned) {
        if (existing.parameter == rule.parameter) {
          existing = rule;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        learned.push_back(std::move(rule));
      }
    }
  }
  return learned;
}

}  // namespace stellar::agents
