// llm_resilience — end-to-end tuning resilience under the canned LLM fault
// scenarios (src/faults). Each scenario runs the full STELLAR loop on the
// same workload with the Enforce sanitizer, and the bench reports, per
// scenario:
//
//   - default vs tuned wall time and the quality ratio against the clean
//     (fault-free) session
//   - the resilience-ladder rung the session ended on
//   - LLM failure machinery counters (failed calls, wasted attempts,
//     breaker trips, sanitizer clamps/rejects)
//
// Gates:
//   1. every scenario's session completes with a real measurement
//   2. bounded quality degradation: no faulted session's best wall time is
//      worse than kQualityBound x the clean session's best
//   3. zero out-of-range configs reach PfsSimulator (pfs.sim.config_rejected
//      stays 0 — the Enforce sanitizer is the last agent-side gate)
//   4. the sanitizer demonstrably engages under flaky-llm (clamped or
//      rejected moves > 0, from its bad-knob/bad-value content faults)
//
// Emits BENCH_llm_resilience.json (rows: name, metric, value).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "pfs/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace stellar;

// The faulted sessions may fall back to coarser rungs (rule baseline /
// safe default), which legitimately tune less well than the full agent
// loop. The bound keeps that degradation honest: even a total LLM outage
// must stay within 2x of the clean session's best wall time (measured
// headroom: worst rung lands within ~1.15x on the bench workload).
constexpr double kQualityBound = 2.0;

struct ScenarioRow {
  std::string name;
  double defaultSeconds = 0.0;
  double bestSeconds = 0.0;
  double speedup = 0.0;
  std::string rung;
  std::uint64_t failedCalls = 0;
  std::uint64_t wastedAttempts = 0;
  std::uint64_t breakerTrips = 0;
  std::uint64_t clampedValues = 0;
  std::uint64_t rejectedMoves = 0;
  std::uint64_t staleAnalyses = 0;
  double simRejected = 0.0;
  bool completed = false;
};

// Ladder depth for the JSON rows: deeper = more degraded.
double rungDepth(const std::string& rung) {
  if (rung == "primary") return 0.0;
  if (rung == "fallback-model") return 1.0;
  if (rung == "rule-baseline") return 2.0;
  return 3.0;  // safe-default
}

ScenarioRow runScenario(const std::string& scenario, const std::string& workload) {
  ScenarioRow row;
  row.name = scenario;

  faults::FaultPlan plan;
  if (scenario != "clean") {
    plan = faults::scenarioByName(scenario);
  }
  obs::CounterRegistry registry;
  pfs::PfsSimulator simulator{{.counters = &registry, .faults = &plan}};

  workloads::WorkloadOptions wopts;
  wopts.ranks = 50;
  wopts.scale = 0.05;
  const pfs::JobSpec job = workloads::byName(workload, wopts);

  core::StellarOptions options;
  options.seed = 42;
  options.agent.seed = 42;
  options.sanitizer = agents::SanitizerMode::Enforce;
  core::StellarEngine engine{simulator, options};
  const core::TuningRunResult run = engine.tune(job);

  row.defaultSeconds = run.defaultSeconds;
  row.bestSeconds = run.bestSeconds;
  row.speedup = run.bestSpeedup();
  row.completed = run.defaultSeconds > 0.0 && run.bestSeconds > 0.0;
  row.rung = run.resilienceRung;
  row.failedCalls = run.resilience.llmFailedCalls;
  row.wastedAttempts = run.resilience.llmWastedAttempts;
  row.breakerTrips = run.resilience.breakerTrips;
  row.clampedValues = run.resilience.clampedValues;
  row.rejectedMoves = run.resilience.rejectedMoves;
  row.staleAnalyses = run.resilience.staleAnalyses;
  row.simRejected = registry.counter("pfs.sim.config_rejected").value();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s\n", argv[0]);
      return 0;
    }
  }

  // Same workload everywhere so the quality ratio is apples-to-apples.
  const std::string workload = "IOR_16M";
  const std::vector<std::string> scenarios = {"clean", "flaky-llm", "degrading-llm",
                                              "llm-outage"};

  std::printf("%-14s %10s %10s %8s %-15s %7s %7s %6s %6s %6s %6s %7s\n", "scenario",
              "default_s", "best_s", "speedup", "rung", "failed", "wasted", "trips",
              "clamp", "rejct", "stale", "simrej");

  std::vector<ScenarioRow> rows;
  for (const std::string& scenario : scenarios) {
    ScenarioRow row = runScenario(scenario, workload);
    std::printf("%-14s %10.2f %10.2f %7.2fx %-15s %7llu %7llu %6llu %6llu %6llu "
                "%6llu %7.0f\n",
                row.name.c_str(), row.defaultSeconds, row.bestSeconds, row.speedup,
                row.rung.c_str(), static_cast<unsigned long long>(row.failedCalls),
                static_cast<unsigned long long>(row.wastedAttempts),
                static_cast<unsigned long long>(row.breakerTrips),
                static_cast<unsigned long long>(row.clampedValues),
                static_cast<unsigned long long>(row.rejectedMoves),
                static_cast<unsigned long long>(row.staleAnalyses), row.simRejected);
    rows.push_back(std::move(row));
  }

  const ScenarioRow& clean = rows.front();
  bool ok = true;

  for (const ScenarioRow& row : rows) {
    if (!row.completed) {
      std::printf("FAIL: scenario %s did not complete a session\n", row.name.c_str());
      ok = false;
    }
    if (row.simRejected != 0.0) {
      std::printf("FAIL: scenario %s leaked %.0f out-of-range configs past the "
                  "sanitizer into PfsSimulator\n",
                  row.name.c_str(), row.simRejected);
      ok = false;
    }
    const double qualityRatio =
        clean.bestSeconds > 0.0 ? row.bestSeconds / clean.bestSeconds : 0.0;
    if (qualityRatio > kQualityBound) {
      std::printf("FAIL: scenario %s best %.2fs is %.2fx the clean best %.2fs "
                  "(bound %.1fx)\n",
                  row.name.c_str(), row.bestSeconds, qualityRatio, clean.bestSeconds,
                  kQualityBound);
      ok = false;
    }
  }

  const ScenarioRow* flaky = nullptr;
  for (const ScenarioRow& row : rows) {
    if (row.name == "flaky-llm") {
      flaky = &row;
    }
  }
  if (flaky == nullptr || flaky->clampedValues + flaky->rejectedMoves == 0) {
    std::printf("FAIL: flaky-llm content faults never engaged the sanitizer "
                "(clamped + rejected == 0)\n");
    ok = false;
  }
  if (clean.failedCalls != 0 || clean.wastedAttempts != 0 ||
      clean.rung != "primary") {
    std::printf("FAIL: clean session shows fault machinery activity "
                "(failed=%llu wasted=%llu rung=%s)\n",
                static_cast<unsigned long long>(clean.failedCalls),
                static_cast<unsigned long long>(clean.wastedAttempts),
                clean.rung.c_str());
    ok = false;
  }

  bench::BenchRows out{"llm_resilience"};
  for (const ScenarioRow& row : rows) {
    const std::string p = row.name + "_";
    out.add(p + "default_seconds", row.defaultSeconds);
    out.add(p + "best_seconds", row.bestSeconds);
    out.add(p + "speedup", row.speedup);
    out.add(p + "quality_ratio_vs_clean",
            clean.bestSeconds > 0.0 ? row.bestSeconds / clean.bestSeconds : 0.0);
    out.add(p + "rung_depth", rungDepth(row.rung));
    out.add(p + "failed_calls", static_cast<double>(row.failedCalls));
    out.add(p + "wasted_attempts", static_cast<double>(row.wastedAttempts));
    out.add(p + "breaker_trips", static_cast<double>(row.breakerTrips));
    out.add(p + "clamped_values", static_cast<double>(row.clampedValues));
    out.add(p + "rejected_moves", static_cast<double>(row.rejectedMoves));
    out.add(p + "sim_config_rejected", row.simRejected);
  }
  out.write("BENCH_llm_resilience.json");

  std::printf("gate: sessions complete, quality within %.1fx of clean, zero "
              "out-of-range configs reach the simulator, sanitizer engages "
              "under flaky-llm  ->  %s\n",
              kQualityBound, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
