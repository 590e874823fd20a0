// warm_start — convergence benefit of the cross-run experience store.
//
// Phase 1 (population): cold-tune IOR_64K for five seeds, filing each
// run's experience into a store.
// Phase 2 (evaluation): for five *fresh* seeds, tune the same workload
// twice — cold (no store) and warm (store recall primes the first
// attempt) — and count the iterations each needs to get within 5% of the
// cold run's best time.
// Phase 3 (dissimilar control): a metadata-heavy workload the store has
// never seen must not recall anything, and its result must be identical
// to a cold run (recall must never degrade quality on dissimilar work).
//
// Gate (exit non-zero on breach):
//   - median warm iterations-to-within-5% strictly below the cold median
//   - median warm best within 5% of the cold best
//   - dissimilar control: no recall, byte-identical best to cold
//
// Emits BENCH_warm_start.json (rows: name, metric, value, seed) in the
// current directory — run from the repo root to refresh the checked-in copy.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "exp/experience_store.hpp"
#include "pfs/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace stellar;

// IO500's mixed phases make the agent's first cold hypothesis weak (it
// needs 2-3 iterations to converge), so warm-start benefit is visible;
// the metadata-heavy control workload must never match IO500 experiences.
constexpr const char* kWorkload = "IO500";
constexpr const char* kDissimilar = "MDWorkbench_8K";
constexpr double kScale = 0.05;
constexpr double kTolerance = 0.05;

core::TuningRunResult tuneOnce(const std::string& workload, std::uint64_t seed,
                               const core::WarmStartProvider* provider) {
  pfs::PfsSimulator simulator;
  core::StellarOptions options;
  options.seed = seed;
  options.agent.seed = seed;
  options.warmStart = provider;
  core::StellarEngine engine{simulator, options};
  return engine.tune(
      workloads::byName(workload, {.ranks = 50, .scale = kScale, .seed = seed}));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

int main() {
  bench::BenchRows rows{"warm_start"};
  bool ok = true;

  // Phase 1: population.
  std::vector<exp::ExperienceRecord> population;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const core::TuningRunResult run = tuneOnce(kWorkload, seed, nullptr);
    population.push_back(exp::recordFromRun(run, seed, "claude-3.7-sonnet", ""));
  }
  exp::ExperienceStore store{"", {}};
  (void)store.absorb(std::move(population));
  std::printf("populated store with %zu cold experiences on %s\n", store.size(),
              kWorkload);

  // Phase 2: cold vs warm on fresh seeds.
  std::vector<double> coldIters;
  std::vector<double> warmIters;
  std::vector<double> bestRatios;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL, 15ULL}) {
    const core::TuningRunResult cold = tuneOnce(kWorkload, seed, nullptr);
    const core::TuningRunResult warm = tuneOnce(kWorkload, seed, &store);
    const double target = cold.bestSeconds;
    const double coldN =
        static_cast<double>(cold.iterationsToWithin(kTolerance, target));
    const double warmN =
        static_cast<double>(warm.iterationsToWithin(kTolerance, target));
    const double ratio = warm.bestSeconds / cold.bestSeconds;
    coldIters.push_back(coldN);
    warmIters.push_back(warmN);
    bestRatios.push_back(ratio);
    rows.add("cold_iterations_to_within_5pct", coldN, seed);
    rows.add("warm_iterations_to_within_5pct", warmN, seed);
    rows.add("warm_over_cold_best_ratio", ratio, seed);
    std::printf("seed %llu: cold %.0f iters, warm %.0f iters (recalled=%d, "
                "best ratio %.3f)\n",
                static_cast<unsigned long long>(seed), coldN, warmN,
                warm.warmStarted ? 1 : 0, ratio);
    if (!warm.warmStarted) {
      std::printf("FAIL: warm run for seed %llu recalled nothing\n",
                  static_cast<unsigned long long>(seed));
      ok = false;
    }
  }
  const double coldMedian = median(coldIters);
  const double warmMedian = median(warmIters);
  const double ratioMedian = median(bestRatios);
  rows.add("cold_median_iterations", coldMedian, 0);
  rows.add("warm_median_iterations", warmMedian, 0);
  rows.add("median_best_ratio", ratioMedian, 0);
  std::printf("median iterations to within 5%% of cold best: cold %.1f, warm %.1f\n",
              coldMedian, warmMedian);
  if (!(warmMedian < coldMedian)) {
    std::printf("FAIL: warm median (%.1f) not strictly below cold median (%.1f)\n",
                warmMedian, coldMedian);
    ok = false;
  }
  if (!(ratioMedian <= 1.0 + kTolerance)) {
    std::printf("FAIL: warm best (median ratio %.3f) outside 5%% of cold best\n",
                ratioMedian);
    ok = false;
  }

  // Phase 3: dissimilar workload must not recall and must not degrade.
  {
    const std::uint64_t seed = 21;
    const core::TuningRunResult cold = tuneOnce(kDissimilar, seed, nullptr);
    const core::TuningRunResult warm = tuneOnce(kDissimilar, seed, &store);
    rows.add("dissimilar_recalled", warm.warmStarted ? 1.0 : 0.0, seed);
    rows.add("dissimilar_best_ratio", warm.bestSeconds / cold.bestSeconds, seed);
    std::printf("dissimilar %s: recalled=%d, cold best %.3fs, warm best %.3fs\n",
                kDissimilar, warm.warmStarted ? 1 : 0, cold.bestSeconds,
                warm.bestSeconds);
    if (warm.warmStarted) {
      std::printf("FAIL: store recalled %s experience for %s\n", kWorkload,
                  kDissimilar);
      ok = false;
    }
    if (warm.bestSeconds != cold.bestSeconds) {
      std::printf("FAIL: dissimilar warm run diverged from cold (quality "
                  "degradation: %.6f vs %.6f)\n",
                  warm.bestSeconds, cold.bestSeconds);
      ok = false;
    }
  }

  rows.write("BENCH_warm_start.json");

  std::printf("%s\n", ok ? "warm_start gate PASSED" : "warm_start gate FAILED");
  return ok ? 0 : 1;
}
