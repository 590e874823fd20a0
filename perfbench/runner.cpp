// perfbench_runner — runs one benchmark workload in its own process and
// prints one JSON document of raw samples as the last line of stdout.
// run.py turns the samples into metrics; the arithmetic lives there so that
// its self-tests can pin it on hand-made inputs.
//
//   perfbench_runner --workload tune-meta|tune-data|fleet --seed N
//                    --seconds S --trace 0|1 --tmp DIR
//
// Workloads (README.md says why each exists):
//   tune-*  a closed loop, one client in one thread: every session builds a
//           fresh core::StellarEngine over a long-lived simulator and runs
//           tune() with no rule set.
//   fleet   one in-process service::TuningService with a file-backed store,
//           2 workers and three tenants; each wave is submitted at once,
//           drained and committed before the next.
//
// The session plan is a pure function of --seed. Sessions run in rounds
// that keep the application mix fixed; rounds repeat until --seconds have
// been measured. Quality numbers come from the plan's first panel of rounds
// (fleet: its first round), whose sessions are the same for every seed --
// the seed draws their order -- so they repeat bit for bit; times come from
// every round.
//
// With --trace 1 the same rounds run twice, untraced then traced, and the
// traced pass also times calls into the darshan, dataframe, agents, exp
// and util/json modules and reads the spans and counters the program
// already emits. The tracer is cleared after every traced unit of work
// (a session, or a fleet round) and sized so that it never drops a record.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agents/analysis_agent.hpp"
#include "core/engine.hpp"
#include "darshan/recorder.hpp"
#include "dataframe/from_darshan.hpp"
#include "exp/experience_store.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "pfs/params.hpp"
#include "pfs/simulator.hpp"
#include "service/service.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace stellar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t monotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Wall time of `fn()` in the unit given by `scale` (1e3 = ms, 1e6 = us).
template <typename Fn>
double timed(double scale, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return secondsSince(start) * scale;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmpDir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "tune-meta|tune-data|fleet --seed N --seconds S --trace 0|1 "
               "--tmp DIR\n",
               problem.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tmp") {
      args.tmpDir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "tune-meta" && args.workload != "tune-data" &&
      args.workload != "fleet") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.tmpDir.empty()) {
    usage("--tmp is required");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Output checks and canonical-document quality
// ---------------------------------------------------------------------------

/// Failed output checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) {
      failures.push_back(what);
    }
  }
};

/// Tuning quality of one canonical result document (TuningRunResult::toJson).
struct Quality {
  double defaultSeconds = 0.0;
  double bestSeconds = 0.0;
  std::size_t itersTo5pct = 0;
  double tokens = 0.0;
  std::size_t llmCalls = 0;
  bool aborted = false;  ///< the initial default run never measured
};

/// Reads the quality numbers back from a result document, so tune-* (which
/// holds TuningRunResult objects) and fleet (which only sees documents)
/// share one definition. itersTo5pct mirrors
/// TuningRunResult::iterationsToWithin(0.05); tune-* checks the two agree.
Quality qualityOf(const util::Json& doc) {
  Quality q;
  q.defaultSeconds = doc.getNumber("default_seconds");
  q.bestSeconds = doc.getNumber("best_seconds");
  q.aborted = q.defaultSeconds <= 0.0;
  const util::Json::Array& attempts = doc.at("attempts").asArray();
  q.itersTo5pct = attempts.size() + 1;
  if (q.bestSeconds > 0.0) {
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      if (attempts[i].getBool("valid") &&
          attempts[i].getNumber("seconds") <= q.bestSeconds * 1.05) {
        q.itersTo5pct = i + 1;
        break;
      }
    }
  }
  const util::Json& usage = doc.at("llm_usage");
  q.tokens = usage.getNumber("input_tokens") + usage.getNumber("output_tokens") +
             usage.getNumber("wasted_input_tokens") +
             usage.getNumber("wasted_output_tokens");
  q.llmCalls = static_cast<std::size_t>(doc.at("resilience").getNumber("llm_calls"));
  return q;
}

/// Per-session output checks: the tuned result never loses to the default
/// and the best configuration is valid on the simulated cluster.
void checkDoc(Checks& checks, const util::Json& doc, const std::string& label) {
  static const pfs::BoundsContext bounds = pfs::PfsSimulator{}.boundsContext();
  const Quality q = qualityOf(doc);
  checks.require(!q.aborted, label + ": initial run failed");
  checks.require(q.bestSeconds > 0.0 && q.bestSeconds <= q.defaultSeconds,
                 label + ": best " + std::to_string(q.bestSeconds) +
                     " s is not <= default " + std::to_string(q.defaultSeconds) + " s");
  const std::vector<std::string> problems =
      pfs::validateConfig(pfs::PfsConfig::fromJson(doc.at("best_config")), bounds);
  checks.require(problems.empty(),
                 label + ": best config invalid: " + util::join(problems, "; "));
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

util::Json sessionJson(const std::string& app, std::uint64_t seed,
                       const std::string& tenant, double latency,
                       const Quality& q) {
  util::Json s = util::Json::makeObject();
  s.set("app", app);
  s.set("seed", static_cast<std::int64_t>(seed));
  if (!tenant.empty()) {
    s.set("tenant", tenant);
  }
  s.set("latency_s", latency);
  s.set("default_s", q.defaultSeconds);
  s.set("best_s", q.bestSeconds);
  s.set("iters", static_cast<std::int64_t>(q.itersTo5pct));
  s.set("tokens", q.tokens);
  s.set("llm_calls", static_cast<std::int64_t>(q.llmCalls));
  s.set("aborted", q.aborted);
  return s;
}

// ---------------------------------------------------------------------------
// Tracing helpers (traced pass only)
// ---------------------------------------------------------------------------

/// Generous ring: one MDWorkbench_8K session at scale 0.08 emits ~1.3M
/// per-RPC instants and a fleet round ~1M; the ring only allocates what is
/// committed, and every unit of work clears it.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 23;

/// The spans the layer breakdown reads, tagged by layer; everything else
/// (iteration:*, harness) is folded into its parent's self time.
const char* spanKind(const obs::TraceRecord& record) {
  const std::string& name = record.name;
  if (record.category == "service") {
    return "service";
  }
  if (name.rfind("pfs.run", 0) == 0) {
    return "pfs.run";
  }
  if (name.rfind("event-loop", 0) == 0) {
    return "event-loop";
  }
  if (name == "offline-extraction") {
    return "offline-extraction";
  }
  if (name.rfind("tune:", 0) == 0) {
    return "tune";
  }
  return nullptr;
}

const char* const kCounterNames[] = {
    "sim.events_dispatched",     "pfs.rpc.data",
    "pfs.rpc.meta",              "pfs.lock.hits",
    "pfs.lock.misses",           "pfs.reada.prefetched_bytes",
    "pfs.reada.consumed_bytes",  "pfs.rpc.retries",
    "agent.llm.retries",         "core.extraction.cache_miss",
};

/// Spans, instant count and counter totals of one traced unit of work;
/// clears the tracer and the registry for the next one.
util::Json harvestTrace(obs::Tracer& tracer, obs::CounterRegistry& counters,
                        Checks& checks) {
  util::Json out = util::Json::makeObject();
  checks.require(tracer.dropped() == 0,
                 "tracer dropped " + std::to_string(tracer.dropped()) + " records");
  out.set("dropped", static_cast<std::int64_t>(tracer.dropped()));
  util::Json spans = util::Json::makeArray();
  std::int64_t instants = 0;
  for (const obs::TraceRecord& record : tracer.snapshot()) {
    if (record.phase == obs::TraceRecord::Phase::Instant) {
      ++instants;
      continue;
    }
    if (const char* kind = spanKind(record)) {
      util::Json span = util::Json::makeArray();
      span.push(kind);
      span.push(static_cast<std::int64_t>(record.tid));
      span.push(record.startUs);
      span.push(record.durUs);
      if (record.category == "service") {
        span.push(record.name);  // the cell key, to pair cells with sessions
      }
      spans.push(std::move(span));
    }
  }
  out.set("spans", std::move(spans));
  out.set("instants", instants);
  std::map<std::string, double> totals;
  for (const obs::MetricSample& sample : counters.snapshot()) {
    if (sample.kind == obs::MetricSample::Kind::Counter) {
      totals[sample.key.name] += sample.value;
    }
  }
  util::Json values = util::Json::makeObject();
  for (const char* name : kCounterNames) {
    values.set(name, totals[name]);
  }
  out.set("counters", std::move(values));
  tracer.clear();
  counters.reset();
  return out;
}

/// The darshan -> dataframe -> analysis-agent path of one session, timed
/// call by call on an untraced rerun of the session's default run. Appends
/// [characterize ms, tablesFromLog ms, initialReport ms] to `rows` and
/// returns the session's I/O report.
agents::IoReport timeCharacterization(const pfs::PfsSimulator& quiet,
                                      const pfs::JobSpec& job, std::uint64_t seed,
                                      util::Json& rows) {
  const std::uint64_t seedBase = util::mix64(seed, 0x7E57);  // as the engine
  const pfs::RunResult initial = quiet.run(job, pfs::PfsConfig{}, seedBase);
  std::optional<darshan::DarshanLog> log;
  std::optional<df::DarshanTables> tables;
  agents::IoReport report;
  llm::TokenMeter meter;
  agents::Transcript transcript;
  util::Json row = util::Json::makeArray();
  row.push(timed(1e3, [&] { log.emplace(darshan::characterize(job, initial, seedBase)); }));
  row.push(timed(1e3, [&] { tables.emplace(df::tablesFromLog(*log)); }));
  agents::AnalysisAgent analysis{*tables, llm::gpt4o(), meter, transcript};
  row.push(timed(1e3, [&] { report = analysis.initialReport(); }));
  rows.push(std::move(row));
  return report;
}

/// Store footprint after a service round: journal + manifest lines and
/// bytes under the store directory.
void measureStore(const std::string& dir, util::Json& out) {
  std::int64_t lines = 0;
  std::int64_t bytes = 0;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    bytes += static_cast<std::int64_t>(entry.file_size());
    const std::string path = entry.path().string();
    if (path.find(".sessions/") != std::string::npos ||
        entry.path().extension() == ".manifest") {
      const std::string text = util::readFile(path);
      lines += static_cast<std::int64_t>(std::count(text.begin(), text.end(), '\n'));
    }
  }
  out.set("journal_lines", lines);
  out.set("store_bytes", bytes);
}

// ---------------------------------------------------------------------------
// Fleet workload: one TuningService round
// ---------------------------------------------------------------------------

const char* const kFleetApps[] = {"AMReX", "MACSio_512K", "MACSio_16M"};
const char* const kTenants[] = {"alice", "bob", "carol"};
/// 4 workers spread 64-102 sessions/s over three runs of one batch on a
/// 4-core host, 2 workers 52-55.
constexpr std::size_t kFleetWorkers = 2;
constexpr std::size_t kWaves = 4;
constexpr std::size_t kWaveSize = 60;
/// Seeds per (app, weather) cell family: 240 submissions over 3 apps x 2
/// weathers x 67 seeds coalesce about 25% of the time.
constexpr std::uint64_t kFleetSeedRange = 67;
/// Draws the schedule's contents. Fixed, so every --seed serves the same
/// multiset of requests per wave: a session's result depends only on its
/// cell and the snapshot committed before its wave, so tuning quality is
/// identical for every --seed (drawn freely it spread 15% across seeds).
constexpr std::uint64_t kFleetDesignSeed = 0xF1EE7;

/// The fleet schedule: waves of tenant/app/seed draws; the workload seed
/// shuffles the submission order inside each wave, which decides dispatch
/// order, queueing and which duplicate owns each cell.
std::vector<std::vector<service::SubmitOptions>> fleetPlan(std::uint64_t seed) {
  std::vector<std::vector<service::SubmitOptions>> waves(kWaves);
  for (std::size_t w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < kWaveSize; ++i) {
      const std::uint64_t draw = util::mix64(kFleetDesignSeed, w * kWaveSize + i);
      service::SubmitOptions request;
      request.tenant = kTenants[draw % 3];
      request.workload = kFleetApps[(draw >> 8) % 3];
      request.seed = 1 + (draw >> 16) % kFleetSeedRange;
      request.scale = 0.05;
      request.warmStart = true;
      if (request.tenant == "carol") {
        request.faults = "flaky-llm";
      }
      waves[w].push_back(std::move(request));
    }
    const std::uint64_t order = util::mix64(seed, 0xFEE7 + w);
    for (std::size_t i = kWaveSize; i > 1; --i) {
      std::swap(waves[w][i - 1], waves[w][util::mix64(order, i) % i]);
    }
  }
  return waves;
}

struct FleetRound {
  util::Json out = util::Json::makeObject();
  std::string digest;
};

/// Traced-pass extras of a fleet round: the tracer and registry the service
/// reports into, and I/O reports to recall with at the end of the round.
struct FleetTrace {
  obs::Tracer* tracer = nullptr;
  obs::CounterRegistry* counters = nullptr;
  const std::vector<agents::IoReport>* reports = nullptr;
};

/// One service lifetime: open a fresh store, serve every wave, commit after
/// each. Traced rounds harvest the tracer once, after the workers have
/// joined: a cell's `service` span ends only after its session settles.
FleetRound fleetRound(const std::vector<std::vector<service::SubmitOptions>>& plan,
                      const std::string& storeDir, std::size_t workers,
                      const FleetTrace& trace, Checks& checks) {
  FleetRound round;
  fs::remove_all(storeDir);
  fs::create_directories(storeDir);
  service::ServiceOptions options;
  options.storePath = storeDir + "/fleet.jsonl";
  options.workers = workers;
  options.tenants["alice"] = service::TenantPolicy{.weight = 2.0};
  options.clock = &monotonicNanos;
  options.tracer = trace.tracer;
  options.counters = trace.counters;
  options.store.counters = trace.counters;

  std::optional<service::TuningService> daemon;
  round.out.set("setup_s", timed(1.0, [&] { daemon.emplace(options); }));
  if (trace.tracer != nullptr) {
    trace.tracer->clear();
    trace.counters->reset();
  }

  util::Json sessions = util::Json::makeArray();
  util::Json waves = util::Json::makeArray();
  util::Json submitUs = util::Json::makeArray();
  util::Json commitMs = util::Json::makeArray();
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  double wall = 0.0;
  for (const std::vector<service::SubmitOptions>& wave : plan) {
    // Submitted at once, as `stellard < wave.jsonl` would, then drained
    // and committed: the loop is closed at the wave level.
    const Clock::time_point waveStart = Clock::now();
    std::size_t accepted = 0;
    for (const service::SubmitOptions& request : wave) {
      const Clock::time_point t0 = Clock::now();
      const service::SubmitResult result = daemon->submit(request);
      submitUs.push(secondsSince(t0) * 1e6);
      accepted += result.accepted() ? 1 : 0;
      checks.require(result.accepted(),
                     "fleet submission rejected: " +
                         (result.accepted() ? std::string{} : result.rejection->detail));
    }
    const std::vector<service::SessionResult> results = daemon->drainAll();
    commitMs.push(timed(1e3, [&] { (void)daemon->commit(); }));
    const double waveWall = secondsSince(waveStart);
    wall += waveWall;

    util::Json waveOut = util::Json::makeObject();
    waveOut.set("wall_s", waveWall);
    checks.require(accepted == wave.size() && results.size() == wave.size(),
                   "fleet: a wave lost sessions");
    for (std::size_t i = 0; i < results.size() && i < wave.size(); ++i) {
      const service::SessionResult& result = results[i];
      const service::SubmitOptions& request = wave[i];
      std::string doc;
      const double jsonUs = timed(1e6, [&] { doc = result.toJson().dump(); });
      digest = util::mix64(digest, util::hash64(doc));
      const bool completed = result.state == service::SessionState::Completed;
      const std::string label = "fleet session " + std::to_string(result.id);
      checks.require(completed,
                     label + " ended " + service::sessionStateName(result.state));
      Quality q;
      if (completed) {
        checkDoc(checks, result.cellDoc, label);
        q = qualityOf(result.cellDoc);
      }
      util::Json s = sessionJson(
          request.workload, request.seed, result.tenant,
          static_cast<double>(result.completeNanos - result.submitNanos) * 1e-9, q);
      s.set("state", service::sessionStateName(result.state));
      s.set("coalesced", result.coalesced);
      s.set("warm_started", completed && result.cellDoc.getBool("warm_started"));
      s.set("key", result.key);
      s.set("json_us", jsonUs);
      sessions.push(std::move(s));
    }
    waves.push(std::move(waveOut));
  }

  const service::ServiceStats stats = daemon->stats();
  checks.require(stats.freshRuns + stats.coalesced == stats.submitted,
                 "fleet: fresh runs " + std::to_string(stats.freshRuns) +
                     " + coalesced " + std::to_string(stats.coalesced) +
                     " != submitted " + std::to_string(stats.submitted));
  util::Json statsOut = util::Json::makeObject();
  statsOut.set("submitted", static_cast<std::int64_t>(stats.submitted));
  statsOut.set("coalesced", static_cast<std::int64_t>(stats.coalesced));

  if (trace.reports != nullptr) {
    // exp layer, recall side: the snapshot the next session would pin.
    const std::shared_ptr<const exp::ExperienceStore> snapshot =
        daemon->fleetStore().snapshot();
    statsOut.set("store_records", static_cast<std::int64_t>(snapshot->size()));
    util::Json recallUs = util::Json::makeArray();
    for (const agents::IoReport& report : *trace.reports) {
      recallUs.push(timed(1e6, [&] { (void)snapshot->warmStart(report); }));
    }
    round.out.set("recall_us", std::move(recallUs));
  }
  daemon.reset();
  if (trace.tracer != nullptr) {
    round.out.set("trace", harvestTrace(*trace.tracer, *trace.counters, checks));
  }
  measureStore(storeDir, statsOut);

  round.out.set("wall_s", wall);
  round.out.set("stats", std::move(statsOut));
  round.out.set("sessions", std::move(sessions));
  round.out.set("waves", std::move(waves));
  round.out.set("submit_us", std::move(submitUs));
  round.out.set("commit_ms", std::move(commitMs));
  round.digest = hex64(digest);
  round.out.set("digest", round.digest);
  return round;
}

util::Json runFleet(const Args& args, Checks& checks) {
  const std::vector<std::vector<service::SubmitOptions>> plan = fleetPlan(args.seed);
  const std::string storeDir = args.tmpDir + "/fleet-store";
  util::Json out = util::Json::makeObject();

  // Untimed warm-up round: lazy set-up and the slow first service lifetime
  // of a process stay out of the numbers. Its digest must match every
  // timed round (same schedule, fresh store => byte-identical documents).
  const FleetRound warm = fleetRound(plan, storeDir, kFleetWorkers, {}, checks);
  out.set("digest", warm.digest);

  const auto pass = [&](const FleetTrace& trace, double seconds,
                        std::size_t minRounds, std::size_t maxRounds) {
    util::Json rounds = util::Json::makeArray();
    const Clock::time_point start = Clock::now();
    while (rounds.asArray().size() < maxRounds &&
           (rounds.asArray().size() < minRounds || secondsSince(start) < seconds)) {
      FleetRound round = fleetRound(plan, storeDir, kFleetWorkers, trace, checks);
      checks.require(round.digest == warm.digest,
                     "fleet: round digest " + round.digest +
                         " differs from the warm-up round's " + warm.digest);
      rounds.push(std::move(round.out));
    }
    return rounds;
  };

  if (!args.trace) {
    out.set("rounds", pass({}, args.seconds, 2, 100000));
  } else {
    util::Json untraced = pass({}, args.seconds / 2, 1, 100000);
    const std::size_t count = untraced.asArray().size();
    out.set("rounds", std::move(untraced));
    // darshan -> dataframe -> analysis agent, per call, on the first
    // distinct cells of the plan; their reports feed the recall timings.
    util::Json characterize = util::Json::makeArray();
    std::vector<agents::IoReport> reports;
    std::set<std::string> seen;
    for (const service::SubmitOptions& request : plan.front()) {
      if (reports.size() < 12 && seen.insert(service::cellKey(request)).second) {
        reports.push_back(timeCharacterization(
            pfs::PfsSimulator{},
            workloads::byName(request.workload, {.ranks = request.ranks,
                                                 .scale = request.scale,
                                                 .seed = request.seed}),
            request.seed, characterize));
      }
    }
    out.set("characterize_ms", std::move(characterize));
    obs::Tracer tracer{{.enabled = true, .capacity = kTraceCapacity}};
    obs::CounterRegistry counters;
    out.set("traced_rounds", pass({&tracer, &counters, &reports}, 0.0, count, count));
  }
  out.set("workers", static_cast<std::int64_t>(kFleetWorkers));
  fs::remove_all(storeDir);
  return out;
}

// ---------------------------------------------------------------------------
// tune-* workloads: closed loop over StellarEngine::tune
// ---------------------------------------------------------------------------

struct TuneSpec {
  std::vector<std::string> round;  ///< app mix of one round (weights by repeats)
  double scale = 0.1;
  /// Rounds per panel: each round slot cycles through its own pool of this
  /// many session seeds, so one panel runs every (slot, seed) pair once.
  std::size_t poolSize = 1;
  /// Fewest panels an untraced run measures, i.e. repeats of every
  /// session (one MDWorkbench session varied 10-20% between repeats on a
  /// shared 4-core host).
  std::size_t minPanels = 1;
};

TuneSpec tuneSpec(const std::string& workload) {
  if (workload == "tune-meta") {
    return {{"MDWorkbench_2K", "MDWorkbench_8K", "IO500"}, 0.08, 3, 3};
  }
  // IOR_64K is weighted 9:1 so the median session sits near the middle of
  // one app's latency cluster: between the two clusters it jumped 10%, and
  // at 3:1 (IOR_64K's 33rd percentile) it spread 24-31% across runs.
  return {{"IOR_64K", "IOR_64K", "IOR_64K", "IOR_64K", "IOR_64K", "IOR_64K",
           "IOR_64K", "IOR_64K", "IOR_64K", "IOR_16M"},
          0.1,
          4,
          4};
}

struct PlannedSession {
  std::string app;
  std::uint64_t seed = 1;
  pfs::JobSpec job;
};

/// Round `r` of the plan, a Latin design over the panel: slot i of round r
/// runs its app with session seed (job, engine and agent seed alike)
/// 1 + i*P + (offset_i + r) mod P, so every panel of P rounds holds the same
/// sessions and tuning quality is identical for every --seed. The workload
/// seed draws the offsets (which sessions share a round) and the order
/// within each round. Round r + P repeats round r exactly.
std::vector<PlannedSession> tuneRound(const TuneSpec& spec, std::uint64_t seed,
                                      std::size_t r) {
  const std::uint64_t pool = spec.poolSize;
  std::vector<PlannedSession> out;
  for (std::size_t i = 0; i < spec.round.size(); ++i) {
    const std::uint64_t offset = util::mix64(seed, 0x0FF5E7 + i) % pool;
    out.push_back({spec.round[i], 1 + i * pool + (offset + r) % pool, {}});
  }
  const std::uint64_t order = util::mix64(seed, 0x7E0000 + r % pool);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[util::mix64(order, i) % i]);
  }
  return out;
}

/// Builds the long-lived objects of one round: the simulator and the
/// round's generated requests. Timed as set-up.
std::pair<pfs::PfsSimulator, std::vector<PlannedSession>> setUpRound(
    const TuneSpec& spec, std::uint64_t seed, std::size_t r,
    const pfs::SimulatorOptions& simOptions) {
  pfs::PfsSimulator simulator{simOptions};
  std::vector<PlannedSession> sessions = tuneRound(spec, seed, r);
  for (PlannedSession& s : sessions) {
    s.job = workloads::byName(s.app, {.scale = spec.scale, .seed = s.seed});
  }
  return {std::move(simulator), std::move(sessions)};
}

core::TuningRunResult tuneSession(const pfs::PfsSimulator& simulator,
                                  const PlannedSession& session) {
  core::StellarOptions options;
  options.seed = session.seed;
  options.agent.seed = session.seed;
  core::StellarEngine engine{simulator, std::move(options)};
  return engine.tune(session.job);
}

/// A one-cell stellard round of this workload's first request (traced):
/// what the service layers (submit, journals, manifest, commit, recall)
/// cost for this request shape.
util::Json tuneServiceProbe(const TuneSpec& spec, const Args& args,
                            obs::Tracer& tracer, obs::CounterRegistry& counters,
                            Checks& checks) {
  const PlannedSession first = tuneRound(spec, args.seed, 0).front();
  service::SubmitOptions request;
  request.tenant = "alice";
  request.workload = first.app;
  request.seed = first.seed;
  request.scale = spec.scale;
  util::Json unused = util::Json::makeArray();
  const std::vector<agents::IoReport> reports{timeCharacterization(
      pfs::PfsSimulator{},
      workloads::byName(first.app, {.scale = spec.scale, .seed = first.seed}),
      first.seed, unused)};
  FleetRound round = fleetRound({{request}}, args.tmpDir + "/probe-store", 1,
                                {&tracer, &counters, &reports}, checks);
  fs::remove_all(args.tmpDir + "/probe-store");
  return std::move(round.out);
}

util::Json runTune(const Args& args, Checks& checks) {
  const TuneSpec spec = tuneSpec(args.workload);
  util::Json out = util::Json::makeObject();

  // Untimed warm-up: session 0 of the plan. Its document must equal the
  // timed run of the same session (determinism law).
  std::string warmDoc;
  {
    const auto [simulator, sessions] = setUpRound(spec, args.seed, 0, {});
    warmDoc = tuneSession(simulator, sessions.front()).toJson().dump();
  }

  // Rounds 0, 1, ... until `seconds` have passed (at least minRounds, at
  // most maxRounds); traced when `tracer` is set.
  const auto pass = [&](obs::Tracer* tracer, obs::CounterRegistry* counters,
                        double seconds, std::size_t minRounds,
                        std::size_t maxRounds) {
    pfs::SimulatorOptions simOptions;
    simOptions.tracer = tracer;
    simOptions.counters = counters;
    const pfs::PfsSimulator quiet;
    util::Json rounds = util::Json::makeArray();
    const Clock::time_point start = Clock::now();
    // Whole panels only, so every pass times the same set of sessions.
    for (std::size_t r = 0;
         r < maxRounds && (r % spec.poolSize != 0 || r < minRounds ||
                           secondsSince(start) < seconds);
         ++r) {
      util::Json round = util::Json::makeObject();
      std::optional<std::pair<pfs::PfsSimulator, std::vector<PlannedSession>>> set;
      round.set("setup_s", timed(1.0, [&] {
                  set.emplace(setUpRound(spec, args.seed, r, simOptions));
                }));
      util::Json sessions = util::Json::makeArray();
      util::Json traces = util::Json::makeArray();
      util::Json characterize = util::Json::makeArray();
      std::uint64_t digest = 0xCBF29CE484222325ULL;
      for (const PlannedSession& planned : set->second) {
        std::optional<core::TuningRunResult> result;
        const double latency =
            timed(1.0, [&] { result.emplace(tuneSession(set->first, planned)); });
        if (tracer != nullptr) {
          traces.push(harvestTrace(*tracer, *counters, checks));
          if (r < spec.poolSize) {  // once per distinct session
            (void)timeCharacterization(quiet, planned.job, planned.seed, characterize);
          }
        }
        std::string doc;
        const double jsonUs = timed(1e6, [&] { doc = result->toJson().dump(); });
        digest = util::mix64(digest, util::hash64(doc));
        const std::string label = planned.app + " seed " + std::to_string(planned.seed);
        if (r == 0 && &planned == &set->second.front()) {
          checks.require(doc == warmDoc, label + ": document differs from the warm-up run");
        }
        const util::Json parsed = util::Json::parse(doc);
        checkDoc(checks, parsed, label);
        const Quality q = qualityOf(parsed);
        checks.require(q.itersTo5pct == result->iterationsToWithin(0.05),
                       label + ": iterations-to-5% disagrees with the engine");
        util::Json s = sessionJson(planned.app, planned.seed, "", latency, q);
        s.set("json_us", jsonUs);
        sessions.push(std::move(s));
      }
      round.set("sessions", std::move(sessions));
      if (tracer != nullptr) {
        round.set("traces", std::move(traces));
        round.set("characterize_ms", std::move(characterize));
      }
      round.set("digest", hex64(digest));
      if (r >= spec.poolSize) {
        const std::string& first =
            rounds.asArray()[r % spec.poolSize].at("digest").asString();
        checks.require(hex64(digest) == first,
                       "round " + std::to_string(r) + " digest differs from round " +
                           std::to_string(r % spec.poolSize) + "'s");
      }
      rounds.push(std::move(round));
    }
    return rounds;
  };

  out.set("panel_rounds", static_cast<std::int64_t>(spec.poolSize));
  util::Json untraced =
      args.trace ? pass(nullptr, nullptr, args.seconds / 2, spec.poolSize, 100000)
                 : pass(nullptr, nullptr, args.seconds, spec.minPanels * spec.poolSize,
                        100000);
  std::uint64_t panelDigest = 0xCBF29CE484222325ULL;
  for (std::size_t r = 0; r < spec.poolSize; ++r) {
    panelDigest =
        util::mix64(panelDigest, util::hash64(untraced.asArray()[r].at("digest").asString()));
  }
  out.set("digest", hex64(panelDigest));
  const std::size_t count = untraced.asArray().size();
  out.set("rounds", std::move(untraced));
  if (args.trace) {
    obs::Tracer tracer{{.enabled = true, .capacity = kTraceCapacity}};
    obs::CounterRegistry counters;
    out.set("traced_rounds", pass(&tracer, &counters, 0.0, count, count));
    out.set("probe", tuneServiceProbe(spec, args, tracer, counters, checks));
    out.set("probe_workers", 1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  Checks checks;
  util::Json doc;
  try {
    fs::create_directories(args.tmpDir);
    doc = args.workload == "fleet" ? runFleet(args, checks) : runTune(args, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  util::Json provenance = util::Json::makeObject();
  provenance.set("cores", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  provenance.set("compiler", PERFBENCH_COMPILER);
  provenance.set("build_type", PERFBENCH_BUILD_TYPE);
  doc.set("provenance", std::move(provenance));
  doc.set("workload", args.workload);
  doc.set("seed", static_cast<std::int64_t>(args.seed));
  doc.set("trace", args.trace);
  doc.set("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  util::Json failures = util::Json::makeArray();
  for (const std::string& failure : checks.failures) {
    failures.push(failure);
  }
  doc.set("check_failures", std::move(failures));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
