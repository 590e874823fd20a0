#include "testkit/metamorphic.hpp"

#include <algorithm>
#include <string>

#include "testkit/run.hpp"
#include "util/units.hpp"

namespace stellar::testkit {

namespace {

double aggregateBytes(const pfs::RunResult& r) {
  double total = 0.0;
  for (const pfs::RankStats& rs : r.ranks) {
    total += static_cast<double>(rs.bytesRead) + static_cast<double>(rs.bytesWritten);
  }
  return total;
}

}  // namespace

std::vector<Violation> checkMetamorphic(const CaseShape& shape,
                                        const MetamorphicPlan& plan) {
  std::vector<Violation> v;
  const GeneratedCase base = materialize(shape);

  // ML-DET: replaying the same case must be bit-identical. This is the
  // repo-wide determinism contract every other law leans on.
  if (plan.determinism) {
    const pfs::RunResult first = runCase(base);
    const pfs::RunResult second = runCase(base);
    if (const auto diff = describeDifference(first, second)) {
      v.push_back(Violation{"ML-DET", "same seed did not replay: " + *diff});
    }
  }

  // ML-SHARD: replicate the case into 4 shared-nothing federation cells
  // and run them on 1 / 2 / 4 worker threads. Each cell runs start to
  // finish on an engine of its own, its jitter streams are keyed by global
  // node and OST ids and its RPC-drop stream by its cell index, and the
  // cells' results fold in cell order, so the worker count cannot change
  // any number. The 4-worker run also publishes to a
  // registry, and INV-O1 checks that against the folded result. Bounded to
  // small shapes: the cellified job is 4x the base work, times 3 runs.
  if (plan.shards && shape.ranks <= 8 &&
      std::uint64_t{shape.chunksPerFile} * shape.chunkBytes <= 8 * util::kMiB) {
    const GeneratedCase celled = cellify(base, 4);
    obs::CounterRegistry registry;
    const pfs::RunResult one = runCase(celled, 1);
    const pfs::RunResult two = runCase(celled, 2);
    const pfs::RunResult four = runCase(celled, 4, &registry);
    if (const auto diff = describeDifference(one, two)) {
      v.push_back(Violation{"ML-SHARD", "1 vs 2 workers diverged: " + *diff});
    }
    if (const auto diff = describeDifference(one, four)) {
      v.push_back(Violation{"ML-SHARD", "1 vs 4 workers diverged: " + *diff});
    }
    const std::vector<Violation> obsViolations = checkObsConsistency(registry, four);
    v.insert(v.end(), obsViolations.begin(), obsViolations.end());
  }

  // ML-FAULTFREE: an attached-but-empty plan must not perturb anything
  // (the injector is not armed for empty plans — pin that contract).
  if (plan.faultFree && shape.faults.empty()) {
    const pfs::RunResult bare = runCase(base);

    pfs::SimulatorOptions options;
    options.cluster = base.cluster;
    const faults::FaultPlan empty;
    options.faults = &empty;
    const pfs::PfsSimulator sim{options};
    const pfs::RunResult withEmpty =
        sim.run(base.job, shape.config, shape.seed);
    if (const auto diff = describeDifference(bare, withEmpty)) {
      v.push_back(
          Violation{"ML-FAULTFREE", "empty fault plan perturbed the run: " + *diff});
    }
  }

  // ML-SCALE: doubling the rank count (doubling client nodes so the
  // per-node resources stay fixed) must not reduce aggregate bytes moved —
  // per-rank programs only get added, never removed.
  if (plan.scale && shape.ranks <= 64) {
    CaseShape doubled = shape;
    doubled.clientNodes = shape.clientNodes * 2;
    doubled.ranks = shape.ranks * 2;
    const pfs::RunResult small = runCase(base);
    const pfs::RunResult big = runCase(materialize(doubled));
    if (small.outcome == pfs::RunOutcome::Ok && big.outcome == pfs::RunOutcome::Ok &&
        aggregateBytes(big) + 0.5 < aggregateBytes(small)) {
      v.push_back(Violation{
          "ML-SCALE", "doubling ranks reduced aggregate work: " +
                          std::to_string(aggregateBytes(small)) + " -> " +
                          std::to_string(aggregateBytes(big)) + " bytes"});
    }
  }

  // ML-RELAX: osc.max_rpcs_in_flight is pure capacity. On a single-rank,
  // private-file, sequential, fault-free workload there is nothing to
  // contend with, so relaxing it cannot meaningfully worsen wall time.
  // Epsilon absorbs service-jitter resampling: the two runs draw from the
  // per-OST jitter streams in different orders.
  if (plan.relax && shape.ranks == 1 && !shape.sharedFile && !shape.randomOffsets &&
      shape.faults.empty()) {
    CaseShape tight = shape;
    (void)tight.config.set("osc.max_rpcs_in_flight", 1);
    CaseShape relaxed = shape;
    (void)relaxed.config.set("osc.max_rpcs_in_flight", 32);
    const pfs::RunResult slowPath = runCase(materialize(tight));
    const pfs::RunResult fastPath = runCase(materialize(relaxed));
    if (slowPath.outcome == pfs::RunOutcome::Ok &&
        fastPath.outcome == pfs::RunOutcome::Ok) {
      const double eps = 0.10 * slowPath.rawWallSeconds + 2e-3;
      if (fastPath.rawWallSeconds > slowPath.rawWallSeconds + eps) {
        v.push_back(Violation{
            "ML-RELAX",
            "relaxing max_rpcs_in_flight 1->32 worsened a contention-free run: " +
                std::to_string(slowPath.rawWallSeconds) + "s -> " +
                std::to_string(fastPath.rawWallSeconds) + "s"});
      }
    }
  }

  return v;
}

}  // namespace stellar::testkit
