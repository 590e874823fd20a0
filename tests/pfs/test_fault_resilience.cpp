// End-to-end fault resilience at the simulator surface: deterministic
// replay (with and without faults, across fresh simulator instances),
// the RPC timeout/retry/backoff path, retry-budget exhaustion, and the
// measurement watchdog.
#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "pfs/simulator.hpp"
#include "testkit/run.hpp"
#include "workloads/workloads.hpp"

namespace stellar {
namespace {

using pfs::JobSpec;
using pfs::PfsConfig;
using pfs::PfsSimulator;
using pfs::RunOutcome;
using pfs::RunResult;

workloads::WorkloadOptions tinyOpts() {
  workloads::WorkloadOptions opt;
  opt.ranks = 10;
  opt.scale = 0.02;
  return opt;
}

// Bit-identical, not approximately equal: the determinism contract, over
// every field of the result.
void expectIdenticalRuns(const RunResult& a, const RunResult& b) {
  const auto difference = testkit::describeDifference(a, b);
  EXPECT_FALSE(difference.has_value()) << *difference;
}

TEST(FaultResilience, DeterministicReplayAcrossFreshSimulators) {
  const JobSpec job = workloads::ior16m(tinyOpts());
  const faults::FaultPlan plan =
      faults::parseFaultSpec("ost:1:degrade:0.4@1-30,rpc:drop:0.15@0-20,seed:3");

  // Two fresh simulator instances, identical (job, config, seed, plan).
  const PfsSimulator simA{{.faults = &plan}};
  const PfsSimulator simB{{.faults = &plan}};
  const RunResult a = simA.run(job, PfsConfig{}, 17);
  const RunResult b = simB.run(job, PfsConfig{}, 17);
  expectIdenticalRuns(a, b);
  EXPECT_GT(a.counters.rpcTimeouts, 0u);  // the plan actually bit

  // And the fault-free contract: no plan vs empty plan, bit-identical.
  const faults::FaultPlan empty;
  const PfsSimulator bare;
  const PfsSimulator withEmpty{{.faults = &empty}};
  expectIdenticalRuns(bare.run(job, PfsConfig{}, 17), withEmpty.run(job, PfsConfig{}, 17));
}

TEST(FaultResilience, FaultFreeRunsMatchNoFaultLayer) {
  // A plan whose windows never overlap the run must not change behaviour:
  // queries stay at identity values and no random stream is drawn. The
  // window edges themselves are two extra engine events, and the queue
  // drains at the far-future close edge; nothing else may differ.
  const JobSpec job = workloads::ior64k(tinyOpts());
  const faults::FaultPlan farFuture = faults::parseFaultSpec("ost:0:outage@1e8-2e8");
  const PfsSimulator bare;
  const PfsSimulator planned{{.faults = &farFuture}};
  const RunResult plain = bare.run(job, PfsConfig{}, 5);
  RunResult withPlan = planned.run(job, PfsConfig{}, 5);
  EXPECT_EQ(withPlan.counters.events, plain.counters.events + 2);
  EXPECT_EQ(withPlan.simEndSeconds, 2e8);
  withPlan.counters.events = plain.counters.events;
  withPlan.simEndSeconds = plain.simEndSeconds;
  expectIdenticalRuns(plain, withPlan);
}

TEST(FaultResilience, TransientOutageRetriesThenSucceeds) {
  const JobSpec job = workloads::ior16m(tinyOpts());
  // A short outage at the start of the run: the first deliveries time out,
  // back off, and succeed once the window closes.
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:outage@0-2");
  const PfsSimulator faulty{{.faults = &plan}};
  const RunResult run = faulty.run(job, PfsConfig{}, 9);

  EXPECT_EQ(run.outcome, RunOutcome::Ok);
  EXPECT_GT(run.counters.rpcTimeouts, 0u);
  EXPECT_GT(run.counters.rpcRetries, 0u);
  EXPECT_EQ(run.counters.rpcGaveUp, 0u);

  // Retries cost time: slower than the fault-free run of the same seed.
  const PfsSimulator bare;
  EXPECT_GT(run.rawWallSeconds, bare.run(job, PfsConfig{}, 9).rawWallSeconds);
}

TEST(FaultResilience, PermanentOutageExhaustsBudgetAndFails) {
  const JobSpec job = workloads::ior16m(tinyOpts());
  const faults::FaultPlan plan = faults::parseFaultSpec("ost:*:outage@0-1e7");
  const PfsSimulator faulty{{.faults = &plan}};
  const RunResult run = faulty.run(job, PfsConfig{}, 9);

  EXPECT_EQ(run.outcome, RunOutcome::Failed);
  EXPECT_FALSE(run.ok());
  EXPECT_GT(run.counters.rpcGaveUp, 0u);
  EXPECT_NE(run.failureReason.find("gave up"), std::string::npos);
}

TEST(FaultResilience, WatchdogCapsRunsThatCannotFinish) {
  const JobSpec job = workloads::ior16m(tinyOpts());
  // Massive stall: every delivery takes +1000 s, so no rank can finish
  // within the 5-simulated-second cap.
  const faults::FaultPlan plan = faults::parseFaultSpec("rpc:stall:1000@0-1e7");
  const PfsSimulator faulty{{.faults = &plan}};
  const RunResult run = faulty.run(job, PfsConfig{}, 9, pfs::RunLimits{5.0});

  EXPECT_EQ(run.outcome, RunOutcome::TimedOut);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.wallSeconds, 5.0);
  EXPECT_NE(run.failureReason.find("cap"), std::string::npos);
}

TEST(FaultResilience, WatchdogLeavesHealthyRunsAlone) {
  const JobSpec job = workloads::ior64k(tinyOpts());
  const PfsSimulator sim;
  const RunResult uncapped = sim.run(job, PfsConfig{}, 3);
  const RunResult capped =
      sim.run(job, PfsConfig{}, 3, pfs::RunLimits{uncapped.rawWallSeconds * 10.0});
  EXPECT_EQ(capped.outcome, RunOutcome::Ok);
  EXPECT_EQ(capped.wallSeconds, uncapped.wallSeconds);
  EXPECT_EQ(capped.counters.events, uncapped.counters.events);
}

TEST(FaultResilience, NoiseSpikeWidensOnlyTheNoise) {
  const JobSpec job = workloads::ior64k(tinyOpts());
  const faults::FaultPlan plan = faults::parseFaultSpec("noise:spike:5@0-1e7");
  const PfsSimulator bare;
  const PfsSimulator noisy{{.faults = &plan}};
  const RunResult a = bare.run(job, PfsConfig{}, 21);
  const RunResult b = noisy.run(job, PfsConfig{}, 21);
  // The simulated execution is untouched; only the measurement noise grows.
  EXPECT_EQ(a.rawWallSeconds, b.rawWallSeconds);
  EXPECT_EQ(a.counters.dataRpcs, b.counters.dataRpcs);
  EXPECT_NE(a.wallSeconds, b.wallSeconds);
}

}  // namespace
}  // namespace stellar
