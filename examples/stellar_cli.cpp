// stellar_cli — command-line front end for the whole engine.
//
//   stellar_cli extract
//       Run the offline RAG parameter extraction and print the result.
//   stellar_cli tune <workload> [options]
//       One complete tuning run; prints the summary (and optionally the
//       full Fig. 10-style transcript).
//   stellar_cli suite [options]
//       Tune the five benchmark workloads in sequence, accumulating the
//       global rule set (persisted with --rules).
//   stellar_cli workloads
//       List available workload names.
//   stellar_cli campaign <spec.json> [options]   (also: --campaign=SPEC)
//       Expand the campaign spec (workloads x seeds x models x faults) and
//       tune every cell concurrently on the tuning service, filing
//       experiences into --store. Prints one machine-readable aggregate
//       JSON document to stdout; a re-run with the same spec and store
//       resumes, skipping completed cells (the aggregate is byte-identical).
//
// Options:
//   --scale <0..1]      workload volume scale            (default 0.1)
//   --seed <n>          run seed (default 42): seeds the workload's
//                       randomization, the simulator and the agent, so
//                       the run tunes the job stellard runs for a request
//                       with the same seed
//   --model <name>      tuning-agent model profile       (default claude-3.7-sonnet)
//   --rules <file>      load/save the global rule set JSON
//   --scope user|system tuning scope (§5.6)              (default system)
//   --transcript        print the full agent transcript
//   --trace <file>      write a Chrome-trace (chrome://tracing) JSON of the
//                       run: sim event loop, RPCs, tuning iterations,
//                       harness repeats ("--trace=out.json" also accepted)
//   --metrics           print the counter-registry snapshot after the run
//   --json              print the canonical TuningRunResult JSON instead of
//                       the human-readable summary
//   --faults <spec>     deterministic fault plan applied to every simulated
//                       run AND to the agent's model calls: a scenario name
//                       (degraded-ost, flaky-network, mds-storm, flaky-llm,
//                       degrading-llm, llm-outage) or a comma-separated event
//                       list, e.g.
//                       "ost:2:degrade:0.3@10-40,llm:timeout:0.2@0-99,seed:7"
//   --sanitize <mode>   tool-call payload sanitizer: observe (default) or
//                       enforce (repair hallucinated/out-of-range moves)
//   --fallback-model <name>  model the resilience ladder falls back to when
//                       the primary's circuit breaker opens
//   --session-journal <file>  crash-safe JSONL session journal: measurements
//                       are recorded as they complete; re-running the same
//                       command resumes the session bit-identically, and a
//                       different session (workload, --scale, --seed, model,
//                       faults) is refused with an error
//   --max-measurements <n>  interrupt the session (exit 3) after n fresh
//                       journaled measurements — deterministic kill testing
//   --store <file>      persistent experience store (JSONL); completed runs
//                       are filed into it
//   --tenant <id>       file completed runs under this tenant, sharing the
//                       stellard service layout: records (tenant-tagged,
//                       keyed by their cell, carrying the run's warm-start
//                       verdict) land in the per-tenant shard journal
//                       `<store>.tenant-<id>` and --store itself is only
//                       read; a later stellard commit absorbs them (session
//                       journals stay where --session-journal puts them:
//                       `<store>.sessions/` holds stellard's own)
//   --warm-start        recall prior experience from --store to warm-start
//                       the tuning agent on similar workloads
//   --campaign <spec>   run the campaign described by this JSON spec file
//   --jobs <n>          campaign worker threads (default: hardware)
//   --max-cells <n>     stop a campaign after n cells (resume testing)
//   --help, -h          print this help and exit 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/offline_extractor.hpp"
#include "exp/experience_store.hpp"
#include "faults/fault_plan.hpp"
#include "obs/export.hpp"
#include "service/campaign.hpp"
#include "service/fleet_store.hpp"
#include "service/session.hpp"
#include "util/file.hpp"
#include "util/units.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace stellar;

struct CliOptions {
  double scale = 0.1;
  std::uint64_t seed = 42;
  std::string model = "claude-3.7-sonnet";
  std::string rulesFile;
  bool userScope = false;
  bool transcript = false;
  std::string traceFile;
  bool metrics = false;
  bool json = false;
  std::string faultsSpec;
  std::string storePath;
  std::string tenant;
  bool warmStart = false;
  std::string campaignSpec;
  std::size_t jobs = 0;
  std::size_t maxCells = 0;
  std::string sanitize;
  std::string fallbackModel;
  std::string sessionJournal;
  std::size_t maxMeasurements = 0;
};

/// Exit 0 (help requested: text to stdout) or 2 (usage error: stderr).
[[noreturn]] void usage(int code = 2) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: stellar_cli <extract|tune|suite|workloads|campaign> [args]\n"
               "  tune <workload> [--scale S] [--seed N] [--model NAME]\n"
               "       [--rules FILE] [--scope user|system] [--transcript]\n"
               "       [--trace FILE] [--metrics] [--json] [--faults SPEC]\n"
               "       [--store FILE] [--tenant ID] [--warm-start]\n"
               "       [--sanitize observe|enforce]\n"
               "       [--fallback-model NAME] [--session-journal FILE]\n"
               "       [--max-measurements N]\n"
               "  suite [--scale S] [--seed N] [--rules FILE]\n"
               "        [--trace FILE] [--metrics] [--faults SPEC]\n"
               "        [--store FILE] [--tenant ID] [--warm-start]\n"
               "  campaign SPEC.json [--store FILE]\n"
               "           [--jobs N] [--max-cells N] [--metrics]\n"
               "           (--campaign=SPEC.json is accepted as a command too)\n"
               "  --help, -h  print this help and exit 0\n");
  std::exit(code);
}

CliOptions parseOptions(const std::vector<std::string>& args, std::size_t start) {
  CliOptions opts;
  for (std::size_t i = start; i < args.size(); ++i) {
    std::string arg = args[i];
    // Accept both "--opt value" and "--opt=value".
    std::string inlineValue;
    bool hasInlineValue = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inlineValue = arg.substr(eq + 1);
        arg.erase(eq);
        hasInlineValue = true;
      }
    }
    const auto value = [&]() -> std::string {
      if (hasInlineValue) {
        return inlineValue;
      }
      if (i + 1 >= args.size()) {
        usage();
      }
      return args[++i];
    };
    if (arg == "--scale") {
      opts.scale = std::atof(value().c_str());
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--model") {
      opts.model = value();
    } else if (arg == "--rules") {
      opts.rulesFile = value();
    } else if (arg == "--scope") {
      const std::string scope = value();
      if (scope == "user") {
        opts.userScope = true;
      } else if (scope != "system") {
        usage();
      }
    } else if (arg == "--transcript") {
      opts.transcript = true;
    } else if (arg == "--trace") {
      opts.traceFile = value();
    } else if (arg == "--metrics") {
      opts.metrics = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--faults") {
      opts.faultsSpec = value();
    } else if (arg == "--store") {
      opts.storePath = value();
    } else if (arg == "--tenant") {
      opts.tenant = value();
      if (!service::validTenantId(opts.tenant)) {
        std::fprintf(stderr, "invalid --tenant id: %s ([a-z0-9_-] only)\n",
                     opts.tenant.c_str());
        usage();
      }
    } else if (arg == "--warm-start") {
      opts.warmStart = true;
    } else if (arg == "--campaign") {
      opts.campaignSpec = value();
    } else if (arg == "--jobs") {
      opts.jobs = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--max-cells") {
      opts.maxCells = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--sanitize") {
      opts.sanitize = value();
    } else if (arg == "--fallback-model") {
      opts.fallbackModel = value();
    } else if (arg == "--session-journal") {
      opts.sessionJournal = value();
    } else if (arg == "--max-measurements") {
      opts.maxMeasurements = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
    }
  }
  return opts;
}

core::StellarOptions engineOptions(const CliOptions& cli) {
  core::StellarOptions options;
  options.seed = cli.seed;
  options.agent.seed = cli.seed;
  options.agent.model = llm::profileByName(cli.model);
  options.scope = cli.userScope ? core::TuningScope::UserAccessible
                                : core::TuningScope::SystemWide;
  if (!cli.sanitize.empty()) {
    options.sanitizer = agents::sanitizerModeByName(cli.sanitize);
  }
  if (!cli.fallbackModel.empty()) {
    options.fallbackModel = llm::profileByName(cli.fallbackModel);
  }
  options.maxMeasurements = cli.maxMeasurements;
  return options;
}

rules::RuleSet loadRules(const CliOptions& cli) {
  if (!cli.rulesFile.empty() && util::fileExists(cli.rulesFile)) {
    try {
      rules::RuleSet set = rules::RuleSet::loadFile(cli.rulesFile);
      // Status to stderr under --json: stdout stays one parseable doc.
      std::fprintf(cli.json ? stderr : stdout, "loaded %zu rules from %s\n",
                   set.size(), cli.rulesFile.c_str());
      return set;
    } catch (const util::JsonError& e) {
      // A corrupt rules file downgrades to a cold start; the tuning run
      // proceeds and --rules will rewrite the file with fresh rules.
      std::fprintf(stderr, "warning: %s — starting with an empty rule set\n",
                   e.what());
    }
  }
  return {};
}

void saveRules(const CliOptions& cli, const rules::RuleSet& set) {
  if (!cli.rulesFile.empty()) {
    set.saveFile(cli.rulesFile);
    std::fprintf(cli.json ? stderr : stdout, "saved %zu rules to %s\n", set.size(),
                 cli.rulesFile.c_str());
  }
}

/// Opens the --store experience store (nullptr without --store). Shared by
/// tune/suite: completed runs are filed via fileRun, and --warm-start wires
/// the store into the engine as the WarmStartProvider.
std::unique_ptr<exp::ExperienceStore> openStore(const CliOptions& cli,
                                                obs::CounterRegistry* counters) {
  if (cli.storePath.empty()) {
    if (cli.warmStart) {
      std::fprintf(stderr, "warning: --warm-start has no effect without --store\n");
    }
    return nullptr;
  }
  exp::StoreOptions options;
  options.counters = counters;
  auto store = std::make_unique<exp::ExperienceStore>(cli.storePath, options);
  std::fprintf(cli.json ? stderr : stdout,
               "experience:    %zu records in %s (%zu corrupt lines skipped)\n",
               store->size(), cli.storePath.c_str(), store->corruptLinesSkipped());
  return store;
}

/// The cell identity stellard would assign this run — shared so a CLI run
/// and a service session of the same work dedup to one record.
std::string cellKeyFor(const CliOptions& cli, const std::string& workload) {
  service::SubmitOptions request;
  request.tenant = cli.tenant;
  request.workload = workload;
  request.seed = cli.seed;
  request.model = cli.model;
  request.faults = cli.faultsSpec;
  request.scale = cli.scale;
  request.ranks = 50;
  return service::cellKey(request);
}

void fileRun(const CliOptions& cli, exp::ExperienceStore* store,
             obs::CounterRegistry* counters, const core::TuningRunResult& run) {
  if (store == nullptr) {
    return;
  }
  exp::ExperienceRecord record =
      exp::recordFromRun(run, cli.seed, cli.model, cli.faultsSpec);
  if (!cli.tenant.empty()) {
    // Tenanted runs share the stellard service layout: the record, with the
    // run's verdict on what it recalled, is tenant-tagged, keyed by its cell
    // (re-runs dedup last-wins), and lands in the per-tenant shard journal
    // next to the base store. The base store is left alone: the next
    // stellard/FleetStore commit absorbs the record and applies the verdict.
    record.tenant = cli.tenant;
    record.id = cellKeyFor(cli, run.workload);
    const std::string shard = service::tenantShardPath(cli.storePath, cli.tenant);
    service::appendShardLine(shard, record);
    if (counters != nullptr) {
      counters->counter("service.store.shard_appends", {{"tenant", cli.tenant}})
          .add(1.0);
    }
    std::fprintf(cli.json ? stderr : stdout,
                 "experience:    filed %s for tenant %s in %s\n", record.id.c_str(),
                 cli.tenant.c_str(), shard.c_str());
    return;
  }
  const std::string id = store->absorb({record}).front();
  std::fprintf(cli.json ? stderr : stdout, "experience:    filed %s (%zu records)\n",
               id.c_str(), store->size());
}

void printRun(const core::TuningRunResult& run, bool withTranscript) {
  std::printf("workload:      %s\n", run.workload.c_str());
  std::printf("default:       %s\n", util::formatSeconds(run.defaultSeconds).c_str());
  std::printf("best:          %s  (%.2fx, %zu attempts)\n",
              util::formatSeconds(run.bestSeconds).c_str(), run.bestSpeedup(),
              run.attempts.size());
  std::printf("changed knobs: %s\n",
              run.bestConfig.diffAgainst(pfs::PfsConfig{}).c_str());
  if (run.warmStarted) {
    std::printf("warm start:    %zu recalled record(s), similarity %.3f\n",
                run.warmStartSources.size(), run.warmStartSimilarity);
  }
  std::printf("stop reason:   %s\n", run.endReason.c_str());
  if (run.resilienceRung != "primary" || run.resilience.undeliveredDecisions > 0 ||
      run.resilience.sanitizerIssues > 0) {
    std::printf("resilience:    rung %s, %llu failed calls (%llu wasted attempts), "
                "%llu breaker trips, %llu sanitizer issues\n",
                run.resilienceRung.c_str(),
                static_cast<unsigned long long>(run.resilience.llmFailedCalls),
                static_cast<unsigned long long>(run.resilience.llmWastedAttempts),
                static_cast<unsigned long long>(run.resilience.breakerTrips),
                static_cast<unsigned long long>(run.resilience.sanitizerIssues));
  }
  const llm::UsageTotals tokens = run.meter.totals();
  std::printf("llm usage:     %zu calls, %zu in / %zu out tokens (%.0f%% cached)\n",
              tokens.calls, tokens.inputTokens, tokens.outputTokens,
              tokens.cacheHitRate() * 100);
  if (withTranscript) {
    std::printf("\n--- transcript ---\n%s", run.transcript.render().c_str());
  }
}

int cmdExtract() {
  manual::SystemFacts facts;
  const core::ExtractionResult result = core::OfflineExtractor{}.run(facts);
  std::printf("indexed %zu chunks; extracted %zu tunables (precision %.2f, "
              "recall %.2f)\n\n",
              result.chunksIndexed, result.tunables.size(), result.precision(),
              result.recall());
  for (const core::ExtractedParam& p : result.tunables) {
    std::printf("%-34s [%lld, %lld]  (%s .. %s)\n", p.name.c_str(),
                static_cast<long long>(p.knowledge.minValue),
                static_cast<long long>(p.knowledge.maxValue), p.minExpr.c_str(),
                p.maxExpr.c_str());
  }
  return 0;
}

/// Observability plumbing shared by tune/suite: a tracer that exists only
/// when --trace was given and a registry that always collects (rendering
/// is gated on --metrics; collection overhead is one flush per run).
struct ObsBundle {
  // 1 Mi ring slots: a full `suite` run emits ~300k records; the default
  // 64 Ki ring would wrap and silently drop the earliest workloads.
  obs::Tracer tracer{{.enabled = true, .capacity = 1 << 20}};
  obs::CounterRegistry registry;
  std::string traceFile;
  // Owned here so the plan outlives every simulator that points at it.
  faults::FaultPlan faultPlan;

  [[nodiscard]] pfs::SimulatorOptions simulatorOptions() {
    return pfs::SimulatorOptions{
        .tracer = traceFile.empty() ? nullptr : &tracer,
        .counters = &registry,
        .faults = faultPlan.empty() ? nullptr : &faultPlan,
    };
  }

  /// Parses --faults; a bad spec is a usage error (exit 2 with the reason
  /// and the valid grammar), never an abort.
  [[nodiscard]] bool loadFaults(const CliOptions& cli) {
    if (cli.faultsSpec.empty()) {
      return true;
    }
    try {
      faultPlan = faults::parseFaultSpec(cli.faultsSpec);
    } catch (const faults::FaultSpecError& e) {
      std::fprintf(stderr, "invalid --faults spec: %s\n", e.what());
      std::fprintf(stderr, "scenarios:");
      for (const auto& name : faults::scenarioNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr,
                   "\nevent grammar: ost:<i|*>:degrade:<mult>@<b>-<e>, "
                   "ost:<i|*>:outage@<b>-<e>, mds:overload:<mult>@<b>-<e>,\n"
                   "               rpc:drop:<p>@<b>-<e>, rpc:stall:<sec>@<b>-<e>, "
                   "noise:spike:<mult>@<b>-<e>, seed:<n>,\n"
                   "               llm:<timeout|ratelimit|truncate|malformed|"
                   "bad-knob|bad-value|stale>:<p>[:<model|*>]@<call>-<call>\n");
      return false;
    }
    // Status goes to stderr under --json so stdout stays one parseable doc.
    std::fprintf(cli.json ? stderr : stdout, "fault plan:    %s\n",
                 faultPlan.describe().c_str());
    return true;
  }

  void finish(const CliOptions& cli) {
    FILE* out = cli.json ? stderr : stdout;
    if (!faultPlan.empty()) {
      std::fprintf(out,
                   "resilience:    %.0f rpc timeouts, %.0f retries, %.0f gave up, "
                   "%.0f fault windows\n",
                   registry.counter("pfs.rpc.timeouts").value(),
                   registry.counter("pfs.rpc.retries").value(),
                   registry.counter("pfs.rpc.gave_up").value(),
                   registry.counter("faults.windows_opened").value());
    }
    if (!traceFile.empty()) {
      obs::writeChromeTrace(tracer, traceFile);
      std::fprintf(out, "trace:         %s (%llu records, %llu dropped)\n",
                   traceFile.c_str(),
                   static_cast<unsigned long long>(tracer.recorded()),
                   static_cast<unsigned long long>(tracer.dropped()));
    }
    if (cli.metrics) {
      std::fprintf(out, "\n--- metrics ---\n%s", registry.renderTable().c_str());
    }
  }
};

int cmdTune(const std::string& workload, const CliOptions& cli) {
  workloads::WorkloadOptions wopts;
  wopts.ranks = 50;
  wopts.scale = cli.scale;
  wopts.seed = cli.seed;
  const pfs::JobSpec job = workloads::byName(workload, wopts);

  ObsBundle bundle;
  bundle.traceFile = cli.traceFile;
  if (!bundle.loadFaults(cli)) {
    return 2;
  }
  pfs::PfsSimulator simulator{bundle.simulatorOptions()};
  const std::unique_ptr<exp::ExperienceStore> store =
      openStore(cli, &bundle.registry);
  core::StellarOptions opts = engineOptions(cli);
  if (cli.warmStart && store != nullptr) {
    opts.warmStart = store.get();
  }
  std::unique_ptr<core::SessionJournal> journal;
  if (!cli.sessionJournal.empty()) {
    journal = std::make_unique<core::SessionJournal>(cli.sessionJournal);
    std::fprintf(cli.json ? stderr : stdout,
                 "journal:       %s (%zu measurements, %zu corrupt lines skipped%s)\n",
                 cli.sessionJournal.c_str(), journal->measurementCount(),
                 journal->corruptLinesSkipped(),
                 journal->complete() ? ", complete" : "");
    opts.journal = journal.get();
  }
  core::StellarEngine engine{simulator, opts};
  rules::RuleSet global = loadRules(cli);
  core::TuningRunResult run;
  try {
    run = engine.tune(job, &global);
  } catch (const core::SessionInterrupted& e) {
    // Deterministic kill point (--max-measurements): progress up to here is
    // journaled; re-running the same command resumes the session.
    std::fprintf(stderr, "session interrupted: %s\n", e.what());
    bundle.finish(cli);
    return 3;
  }
  fileRun(cli, store.get(), &bundle.registry, run);
  util::Json doc = run.toJson();
  if (journal != nullptr) {
    journal->markComplete(doc);  // after filing: a kill before this re-files on resume
  }
  // Re-measure the winning configuration under the harness protocol —
  // the validation numbers the paper reports, and the "harness" spans of
  // the trace.
  const core::RepeatedMeasure validated = core::measureConfig(
      simulator, job, run.bestConfig, {.repeats = 4, .seedBase = cli.seed ^ 0xBE57});
  if (cli.json) {
    doc.set("validated_best_mean_seconds", validated.summary.mean);
    doc.set("validated_best_ci90_seconds", validated.summary.ci90);
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    printRun(run, cli.transcript);
    std::printf("validated:     %s ± %s over %zu repeats\n",
                util::formatSeconds(validated.summary.mean).c_str(),
                util::formatSeconds(validated.summary.ci90).c_str(),
                validated.samples.size());
  }
  saveRules(cli, global);
  bundle.finish(cli);
  return 0;
}

int cmdSuite(const CliOptions& cli) {
  workloads::WorkloadOptions wopts;
  wopts.ranks = 50;
  wopts.scale = cli.scale;
  wopts.seed = cli.seed;
  ObsBundle bundle;
  bundle.traceFile = cli.traceFile;
  if (!bundle.loadFaults(cli)) {
    return 2;
  }
  pfs::PfsSimulator simulator{bundle.simulatorOptions()};
  const std::unique_ptr<exp::ExperienceStore> store =
      openStore(cli, &bundle.registry);
  rules::RuleSet global = loadRules(cli);
  for (const std::string& name : workloads::benchmarkNames()) {
    core::StellarOptions opts = engineOptions(cli);
    if (cli.warmStart && store != nullptr) {
      opts.warmStart = store.get();
    }
    core::StellarEngine engine{simulator, opts};
    const core::TuningRunResult run =
        engine.tune(workloads::byName(name, wopts), &global);
    fileRun(cli, store.get(), &bundle.registry, run);
    std::printf("%-16s %.2fx in %zu attempts (rules now: %zu)%s\n", name.c_str(),
                run.bestSpeedup(), run.attempts.size(), global.size(),
                run.warmStarted ? "  [warm]" : "");
  }
  saveRules(cli, global);
  bundle.finish(cli);
  return 0;
}

int cmdCampaign(const std::string& specPath, CliOptions cli) {
  if (specPath.empty()) {
    std::fprintf(stderr, "campaign: missing spec file\n");
    usage();
  }
  // The aggregate document is the command's stdout; everything else
  // (progress, store stats, metrics) goes to stderr.
  cli.json = true;
  service::CampaignSpec spec;
  try {
    spec = service::CampaignSpec::loadFile(specPath);
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "invalid campaign spec %s: %s\n", specPath.c_str(),
                 e.what());
    return 2;
  }
  ObsBundle bundle;
  bundle.traceFile = cli.traceFile;
  service::ServiceOptions options;
  options.storePath = cli.storePath;
  options.workers = cli.jobs;  // 0 = hardware concurrency
  options.maxFreshSessions = cli.maxCells;
  options.store.counters = &bundle.registry;
  options.counters = &bundle.registry;
  options.tracer = bundle.traceFile.empty() ? nullptr : &bundle.tracer;
  const service::CampaignResult result = service::runCampaign(spec, options);
  std::fprintf(stderr, "campaign:      %zu cells (%zu executed, %zu resumed)%s\n",
               result.cells.size(), result.executed, result.skipped,
               result.complete ? "" : "  [incomplete]");
  std::printf("%s\n", result.aggregateJson(spec).dump(2).c_str());
  bundle.finish(cli);
  return result.complete ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args{argv + 1, argv + argc};
  if (args.empty()) {
    usage();
  }
  const std::string& command = args[0];
  if (command == "--help" || command == "-h") {
    usage(0);
  }
  try {
    // Flag-style invocation per the campaign surface: stellar_cli
    // --campaign=SPEC [--store=...]. Everything is parsed as options.
    if (command.rfind("--", 0) == 0) {
      const CliOptions cli = parseOptions(args, 0);
      if (!cli.campaignSpec.empty()) {
        return cmdCampaign(cli.campaignSpec, cli);
      }
      std::fprintf(stderr, "no command given (expected --campaign=SPEC)\n");
      usage();
    }
    if (command == "extract") {
      return cmdExtract();
    }
    if (command == "workloads") {
      for (const auto& name : stellar::workloads::benchmarkNames()) {
        std::printf("%s\n", name.c_str());
      }
      for (const auto& name : stellar::workloads::realAppNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (command == "tune") {
      if (args.size() < 2) {
        usage();
      }
      return cmdTune(args[1], parseOptions(args, 2));
    }
    if (command == "suite") {
      return cmdSuite(parseOptions(args, 1));
    }
    if (command == "campaign") {
      const std::string spec = args.size() >= 2 ? args[1] : "";
      return cmdCampaign(spec, parseOptions(args, spec.empty() ? 1 : 2));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
