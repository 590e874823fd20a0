// End-to-end simulator behaviour: determinism, conservation, noise model,
// validation errors, and basic stats plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "pfs/simulator.hpp"
#include "testkit/run.hpp"
#include "workloads/workloads.hpp"

namespace stellar {
namespace {

using pfs::IoOp;
using pfs::JobSpec;
using pfs::PfsConfig;
using pfs::PfsSimulator;

workloads::WorkloadOptions tinyOpts() {
  workloads::WorkloadOptions opt;
  opt.ranks = 10;
  opt.scale = 0.02;
  return opt;
}

void expectIdenticalResults(const pfs::RunResult& a, const pfs::RunResult& b) {
  const auto difference = testkit::describeDifference(a, b);
  EXPECT_FALSE(difference.has_value()) << *difference;
}

TEST(Simulator, DeterministicForSameSeed) {
  PfsSimulator sim;
  const JobSpec job = workloads::ior16m(tinyOpts());
  expectIdenticalResults(sim.run(job, PfsConfig{}, 7), sim.run(job, PfsConfig{}, 7));
}

TEST(Simulator, NoEventCallbackSpillsToTheHeap) {
  // Every sim/pfs closure fits sim::Callback's inline buffer, because a
  // continuation that another closure hands on travels as a parked
  // handle. A closure that outgrows the buffer would allocate on every
  // event; this catches it on the metadata and data paths, and on the
  // timeout, retry and stall paths that only a fault plan drives.
  const faults::FaultPlan flaky = faults::scenarioByName("flaky-network");
  for (const char* name : {"MDWorkbench_8K", "IOR_64K"}) {
    const JobSpec job = workloads::byName(name, tinyOpts());
    for (const faults::FaultPlan* plan : {static_cast<const faults::FaultPlan*>(nullptr),
                                          &flaky}) {
      SCOPED_TRACE(std::string(name) + (plan != nullptr ? " under flaky-network" : ""));
      obs::CounterRegistry registry;
      const PfsSimulator sim{{.counters = &registry, .faults = plan}};
      const pfs::RunResult result = sim.run(job, PfsConfig{}, 5);
      EXPECT_GT(registry.counter("sim.events_dispatched").value(), 0.0);
      EXPECT_EQ(registry.counter("sim.callbacks_spilled").value(), 0.0);
      if (plan != nullptr) {
        EXPECT_GT(result.counters.rpcRetries, 0u);  // the retry path ran
      }
    }
  }
}

TEST(Simulator, SeedChangesOnlyPerturbTiming) {
  PfsSimulator sim;
  const JobSpec job = workloads::ior16m(tinyOpts());
  const auto a = sim.run(job, PfsConfig{}, 1);
  const auto b = sim.run(job, PfsConfig{}, 2);
  EXPECT_NE(a.wallSeconds, b.wallSeconds);
  // Work is conserved regardless of seed.
  EXPECT_EQ(a.totalBytesWritten(), b.totalBytesWritten());
  EXPECT_EQ(a.totalBytesRead(), b.totalBytesRead());
  // Timing varies by only a few percent.
  EXPECT_NEAR(a.rawWallSeconds / b.rawWallSeconds, 1.0, 0.25);
}

TEST(Simulator, ConservesByteCounts) {
  PfsSimulator sim;
  auto opt = tinyOpts();
  const JobSpec job = workloads::ior64k(opt);
  const auto result = sim.run(job, PfsConfig{}, 3);

  // IOR writes then reads the same volume.
  EXPECT_GT(result.totalBytesWritten(), 0.0);
  EXPECT_DOUBLE_EQ(result.totalBytesWritten(), result.totalBytesRead());

  // Per-file stats agree with per-rank stats.
  double fileWritten = 0.0;
  for (const auto& f : result.files) {
    fileWritten += static_cast<double>(f.bytesWritten);
  }
  EXPECT_DOUBLE_EQ(fileWritten, result.totalBytesWritten());
}

TEST(Simulator, SharedFileMarksAllRanks) {
  PfsSimulator sim;
  const JobSpec job = workloads::ior16m(tinyOpts());
  const auto result = sim.run(job, PfsConfig{}, 3);
  ASSERT_EQ(result.files.size(), 1u);
  // All 10 ranks touched the single shared file.
  EXPECT_EQ(__builtin_popcountll(result.files[0].rankMask), 10);
}

TEST(Simulator, RejectsInvalidConfig) {
  PfsSimulator sim;
  const JobSpec job = workloads::ior16m(tinyOpts());
  PfsConfig bad;
  bad.osc_max_rpcs_in_flight = 100000;
  EXPECT_THROW((void)sim.run(job, bad, 1), std::invalid_argument);

  PfsConfig badDependent;
  badDependent.llite_max_read_ahead_mb = 64;
  badDependent.llite_max_read_ahead_per_file_mb = 64;  // must be <= half
  EXPECT_THROW((void)sim.run(job, badDependent, 1), std::invalid_argument);
}

TEST(Simulator, RejectsJobWithTooManyRanks) {
  PfsSimulator sim;
  workloads::WorkloadOptions opt;
  opt.ranks = 51;  // cluster has 50 slots
  opt.scale = 0.02;
  const JobSpec job = workloads::ior16m(opt);
  EXPECT_THROW((void)sim.run(job, PfsConfig{}, 1), std::invalid_argument);
}

TEST(Simulator, MetadataWorkloadProducesMetaRpcs) {
  PfsSimulator sim;
  auto opt = tinyOpts();
  const JobSpec job = workloads::mdworkbench(8 * util::kKiB, opt);
  const auto result = sim.run(job, PfsConfig{}, 3);
  EXPECT_GT(result.counters.metaRpcs, 100u);
  // Each file is created/stated/opened/unlinked 3 rounds.
  for (const auto& f : result.files) {
    EXPECT_EQ(f.creates, 3u);
    EXPECT_EQ(f.unlinks, 3u);
    EXPECT_EQ(f.stats, 3u);
  }
}

TEST(Simulator, NoiseHasUnitMean) {
  PfsSimulator sim;
  const JobSpec job = workloads::ior16m(tinyOpts());
  double noisy = 0.0;
  double raw = 0.0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto r = sim.run(job, PfsConfig{}, seed);
    noisy += r.wallSeconds;
    raw += r.rawWallSeconds;
  }
  EXPECT_NEAR(noisy / raw, 1.0, 0.05);
}

TEST(Simulator, BarrierTimesExposePhaseStructure) {
  PfsSimulator sim;
  const JobSpec job = workloads::mdworkbench(8 * util::kKiB, tinyOpts());
  const auto result = sim.run(job, PfsConfig{}, 3);
  // MDWorkbench: 4 barriers per round x 3 rounds.
  ASSERT_EQ(result.barrierTimes.size(), 12u);
  for (std::size_t i = 1; i < result.barrierTimes.size(); ++i) {
    EXPECT_GE(result.barrierTimes[i], result.barrierTimes[i - 1]);
  }
  EXPECT_LE(result.barrierTimes.back(), result.rawWallSeconds + 1e-9);
}

// ------------------------------------------------------------- federated

pfs::ClusterSpec tinyFederatedCluster(std::uint32_t cells) {
  pfs::ClusterSpec cl;
  cl.name = "tiny-federated";
  cl.clientNodes = cells;  // one client node per cell
  cl.ranksPerNode = 2;
  cl.ossNodes = cells;  // one OSS (one OST) per cell
  cl.cells = cells;
  return cl;
}

// File-per-process job: each rank owns its file, so the partition into
// cells is clean (no file crosses a cell boundary).
JobSpec fppJob(std::uint32_t ranks) {
  JobSpec job;
  job.name = "fpp-federated";
  job.ranks.resize(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto f = job.addFile("/fpp/rank" + std::to_string(r));
    auto& prog = job.ranks[r];
    prog.push_back(IoOp::create(f));
    for (int i = 0; i < 4; ++i) {
      prog.push_back(IoOp::write(f, static_cast<std::uint64_t>(i) * util::kMiB,
                                 util::kMiB));
    }
    prog.push_back(IoOp::fsync(f));
    prog.push_back(IoOp::barrier());
    for (int i = 0; i < 4; ++i) {
      prog.push_back(IoOp::read(f, static_cast<std::uint64_t>(i) * util::kMiB,
                                util::kMiB));
    }
    prog.push_back(IoOp::close(f));
  }
  return job;
}

// Each rank writes its own file, 16 x 1 MiB, then fsyncs and closes it.
JobSpec writeFsyncJob(std::uint32_t ranks) {
  JobSpec job;
  job.name = "write-fsync";
  job.ranks.resize(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto f = job.addFile("/wf/rank" + std::to_string(r));
    auto& prog = job.ranks[r];
    prog.push_back(IoOp::create(f));
    for (int i = 0; i < 16; ++i) {
      prog.push_back(IoOp::write(f, static_cast<std::uint64_t>(i) * util::kMiB,
                                 util::kMiB));
    }
    prog.push_back(IoOp::fsync(f));
    prog.push_back(IoOp::close(f));
  }
  return job;
}

TEST(SimulatorFederated, EachCellDrawsItsOwnRpcDrops) {
  // Every cell of an 8-cell run holds the same 2-rank job. Cells sharing
  // one drop stream would lose the same RPCs, so the 8-cell run would
  // count exactly 8x the one-cell timeouts. Cell 0 keeps the one-cell
  // stream, so its ranks replay the one-cell run exactly.
  for (const int planSeed : {3, 11}) {
    SCOPED_TRACE("plan seed " + std::to_string(planSeed));
    const faults::FaultPlan plan =
        faults::parseFaultSpec("rpc:drop:0.05@0-90,seed:" + std::to_string(planSeed));
    const auto runCells = [&](std::uint32_t cells) {
      const PfsSimulator sim{{.cluster = tinyFederatedCluster(cells), .faults = &plan}};
      return sim.run(writeFsyncJob(2 * cells), PfsConfig{}, 9);
    };
    const pfs::RunResult one = runCells(1);
    const pfs::RunResult eight = runCells(8);
    ASSERT_EQ(one.outcome, pfs::RunOutcome::Ok);
    ASSERT_EQ(eight.outcome, pfs::RunOutcome::Ok);
    EXPECT_GT(one.counters.rpcTimeouts, 0u);
    EXPECT_NE(eight.counters.rpcTimeouts, 8 * one.counters.rpcTimeouts);
    EXPECT_EQ(eight.ranks[0], one.ranks[0]);
    EXPECT_EQ(eight.ranks[1], one.ranks[1]);
  }
}

TEST(SimulatorFederated, BitIdenticalAcrossSchedulersAndShardCounts) {
  // Four cells run inline in cell order (1 worker) or concurrently (2 and
  // 4 workers): the results must not differ in any bit.
  const JobSpec job = fppJob(8);
  const auto runWith = [&](std::uint32_t workers) {
    PfsSimulator sim{{.cluster = tinyFederatedCluster(4), .workers = workers}};
    return sim.run(job, PfsConfig{}, 11);
  };
  const auto reference = runWith(1);
  EXPECT_EQ(reference.outcome, pfs::RunOutcome::Ok);
  expectIdenticalResults(reference, runWith(2));
  expectIdenticalResults(reference, runWith(4));
}

TEST(SimulatorFederated, FaultedCappedRunIsBitIdenticalAcrossWorkerCounts) {
  // Under flaky-network at seed 9 six RPCs time out, each cell losing
  // RPCs from its own drop stream, and those losses and per-OST jitter
  // make the cells finish at different times; a cap between the first
  // and the last cell's finish leaves some cells done and at least one
  // unfinished.
  const JobSpec job = fppJob(8);
  const faults::FaultPlan plan = faults::scenarioByName("flaky-network");
  const auto runWith = [&](std::uint32_t workers, double cap) {
    PfsSimulator sim{{.cluster = tinyFederatedCluster(4), .faults = &plan, .workers = workers}};
    return sim.run(job, PfsConfig{}, 9, pfs::RunLimits{.maxSimSeconds = cap});
  };
  const auto full = runWith(1, 0.0);
  ASSERT_EQ(full.ranks.size(), 8u);
  EXPECT_GT(full.counters.rpcRetries, 0u);  // the faults reached the run
  expectIdenticalResults(full, runWith(4, 0.0));
  std::vector<double> cellFinish(4, 0.0);  // two ranks per cell
  for (std::size_t r = 0; r < full.ranks.size(); ++r) {
    cellFinish[r / 2] = std::max(cellFinish[r / 2], full.ranks[r].finishTime);
  }
  const auto [first, last] = std::minmax_element(cellFinish.begin(), cellFinish.end());
  ASSERT_LT(*first, *last);
  const double cap = (*first + *last) / 2.0;

  const auto capped = runWith(1, cap);
  EXPECT_EQ(capped.outcome, pfs::RunOutcome::TimedOut);
  EXPECT_DOUBLE_EQ(capped.wallSeconds, cap);
  // An abandoned measurement reports no per-rank or per-file stats, even
  // for the cells that finished before the cap.
  EXPECT_TRUE(capped.ranks.empty());
  EXPECT_TRUE(capped.files.empty());
  expectIdenticalResults(capped, runWith(2, cap));
  expectIdenticalResults(capped, runWith(4, cap));
}

TEST(SimulatorFederated, DeadlockedCellThrowsNamingTheJob) {
  // Rank 5 skips the barrier its cell-mate (rank 4, cell 2) waits at, which
  // JobSpec::validate accepts: cell 2's queue drains with rank 4 blocked.
  JobSpec job = fppJob(8);
  std::vector<IoOp>& program = job.ranks[5];
  program.erase(std::find_if(program.begin(), program.end(), [](const IoOp& op) {
    return op.kind == pfs::OpKind::Barrier;
  }));
  ASSERT_TRUE(job.validate().empty());
  for (const std::uint32_t workers : {1U, 4U}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    PfsSimulator sim{{.cluster = tinyFederatedCluster(4), .workers = workers}};
    try {
      (void)sim.run(job, PfsConfig{}, 3);
      ADD_FAILURE() << "a deadlocked cell did not throw";
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "rejected as invalid instead: " << e.what();
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
      EXPECT_NE(what.find("'fpp-federated'"), std::string::npos) << what;
    }
  }
}

TEST(SimulatorFederated, ScattersStatsBackToGlobalIds) {
  const JobSpec job = fppJob(8);
  PfsSimulator sim{{.cluster = tinyFederatedCluster(4)}};
  const auto result = sim.run(job, PfsConfig{}, 5);
  ASSERT_EQ(result.outcome, pfs::RunOutcome::Ok);
  ASSERT_EQ(result.ranks.size(), 8u);
  ASSERT_EQ(result.files.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.ranks[i].bytesWritten, 4u * util::kMiB) << "rank " << i;
    EXPECT_EQ(result.files[i].bytesWritten, 4u * util::kMiB) << "file " << i;
    EXPECT_GT(result.ranks[i].finishTime, 0.0);
  }
  // Every cell's OST served its share (fsync before the barrier forces
  // writeout, so server bytes are nonzero in every cell).
  ASSERT_EQ(result.audit.osts.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(result.audit.osts[i].bytesWritten, 0u) << "ost " << i;
  }
  EXPECT_EQ(result.barrierTimes.size(), 1u);
}

TEST(SimulatorFederated, RejectsFileSharedAcrossCells) {
  // One shared file touched by every rank cannot be partitioned into
  // shared-nothing cells.
  workloads::WorkloadOptions opt;
  opt.ranks = 4;
  opt.scale = 0.02;
  const JobSpec job = workloads::ior16m(opt);
  PfsSimulator sim{{.cluster = tinyFederatedCluster(2)}};
  EXPECT_THROW((void)sim.run(job, PfsConfig{}, 1), std::invalid_argument);
}

TEST(SimulatorFederated, CappedRunTimesOutCleanlyAndLeavesNoResidue) {
  const JobSpec job = fppJob(4);
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:degrade:0.5@0-1000000");
  PfsSimulator sim{{.cluster = tinyFederatedCluster(2), .faults = &plan}};
  // Cap mid-run while the degrade window is still open.
  const auto capped = sim.run(job, PfsConfig{}, 9, pfs::RunLimits{.maxSimSeconds = 1e-3});
  EXPECT_EQ(capped.outcome, pfs::RunOutcome::TimedOut);
  EXPECT_DOUBLE_EQ(capped.wallSeconds, 1e-3);
  // The abandoned measurement leaves nothing behind: a following uncapped
  // run is bit-identical to the same run on a fresh simulator.
  const auto after = sim.run(job, PfsConfig{}, 9);
  PfsSimulator fresh{{.cluster = tinyFederatedCluster(2), .faults = &plan}};
  const auto clean = fresh.run(job, PfsConfig{}, 9);
  EXPECT_EQ(after.outcome, pfs::RunOutcome::Ok);
  expectIdenticalResults(after, clean);
}

TEST(Simulator, ComputeOpsAddWallTime) {
  PfsSimulator sim;
  JobSpec job;
  job.name = "compute-only";
  job.ranks.resize(2);
  const auto f = job.addFile("/x");
  for (auto& prog : job.ranks) {
    prog.push_back(IoOp::compute(1.0));
    prog.push_back(IoOp::barrier());
  }
  job.ranks[0].insert(job.ranks[0].begin(), IoOp::create(f));
  const auto result = sim.run(job, PfsConfig{}, 1);
  EXPECT_GE(result.rawWallSeconds, 1.0);
  EXPECT_LT(result.rawWallSeconds, 1.5);
  EXPECT_DOUBLE_EQ(result.ranks[0].computeTime, 1.0);
}

}  // namespace
}  // namespace stellar
