// FaultInjector: window edges through the engine queue, O(1) state
// queries, composition, and the determinism/independence contracts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "sim/engine.hpp"

namespace stellar::faults {
namespace {

TEST(FaultInjector, DegradeWindowOpensAndCloses) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("ost:1:degrade:0.25@10-20");
  FaultInjector injector{engine, plan, 4, 99};
  injector.arm();

  std::vector<double> slowdowns;
  for (const double t : {5.0, 15.0, 25.0}) {
    engine.scheduleAt(t, [&] { slowdowns.push_back(injector.ostSlowdown(1)); });
  }
  engine.run();

  ASSERT_EQ(slowdowns.size(), 3u);
  EXPECT_DOUBLE_EQ(slowdowns[0], 1.0);
  EXPECT_DOUBLE_EQ(slowdowns[1], 1.0 / 0.25);  // capacity 0.25 => 4x slower
  EXPECT_DOUBLE_EQ(slowdowns[2], 1.0);
  // Untargeted OST never degrades.
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 1.0);
  EXPECT_EQ(injector.windowsOpened(), 1u);
}

TEST(FaultInjector, OverlappingOutagesNestByDepth) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("ost:0:outage@5-15,ost:*:outage@10-20");
  FaultInjector injector{engine, plan, 2, 1};
  injector.arm();

  std::vector<bool> down;
  for (const double t : {12.0, 17.0, 25.0}) {
    engine.scheduleAt(t, [&] { down.push_back(injector.ostDown(0)); });
  }
  engine.run();

  ASSERT_EQ(down.size(), 3u);
  EXPECT_TRUE(down[0]);   // both windows open
  EXPECT_TRUE(down[1]);   // wildcard still open after the targeted one closed
  EXPECT_FALSE(down[2]);  // all closed
}

TEST(FaultInjector, DropProbabilitiesComposeAsSurvival) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("rpc:drop:0.5@0-10,rpc:drop:0.5@0-10");
  FaultInjector injector{engine, plan, 1, 1};
  injector.arm();

  double prob = -1.0;
  engine.scheduleAt(5.0, [&] { prob = injector.rpcDropProbability(); });
  engine.run();
  EXPECT_DOUBLE_EQ(prob, 0.75);  // 1 - (1-0.5)(1-0.5)
  EXPECT_DOUBLE_EQ(injector.rpcDropProbability(), 0.0);  // windows closed
}

TEST(FaultInjector, StallAndMdsQueriesTrackWindows) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("rpc:stall:0.5@2-4,mds:overload:3@2-4");
  FaultInjector injector{engine, plan, 1, 1};
  injector.arm();

  double stall = -1.0;
  double mds = -1.0;
  engine.scheduleAt(3.0, [&] {
    stall = injector.rpcStallSeconds();
    mds = injector.mdsSlowdown();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(stall, 0.5);
  EXPECT_DOUBLE_EQ(mds, 3.0);
  EXPECT_DOUBLE_EQ(injector.rpcStallSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(injector.mdsSlowdown(), 1.0);
}

TEST(FaultInjector, NoiseMultiplierIsOverlapWeighted) {
  // Noise spikes are applied after the run from the plan alone, so the
  // multiplier is a FaultPlan function: no injector outlives its cell.
  const FaultPlan plan = parseFaultSpec("noise:spike:3@0-45");
  // Window covers half of a 90 s run: 1 + (3-1) * 45/90 = 2.
  EXPECT_DOUBLE_EQ(plan.noiseMultiplierOver(90.0), 2.0);
  // Window covers the whole of a 45 s run.
  EXPECT_DOUBLE_EQ(plan.noiseMultiplierOver(45.0), 3.0);
  // Zero-length run degrades to no scaling.
  EXPECT_DOUBLE_EQ(plan.noiseMultiplierOver(0.0), 1.0);
}

TEST(FaultInjector, DropSamplingIsDeterministicPerRunSeed) {
  const FaultPlan plan = parseFaultSpec("rpc:drop:0.4@0-100,seed:11");
  const auto sampleSequence = [&](std::uint64_t runSeed) {
    sim::SimEngine engine;
    FaultInjector injector{engine, plan, 1, runSeed};
    injector.arm();
    std::vector<bool> draws;
    engine.scheduleAt(1.0, [&] {
      for (int i = 0; i < 64; ++i) {
        draws.push_back(injector.sampleRpcDrop());
      }
    });
    engine.run();
    return draws;
  };
  EXPECT_EQ(sampleSequence(7), sampleSequence(7));
  EXPECT_NE(sampleSequence(7), sampleSequence(8));
}

TEST(FaultInjector, CancelOpenWindowsResetsStateAfterCappedRun) {
  // A capped runUntil can strand a window's close edge beyond the cap;
  // cancelOpenWindows retires it so the injector reads neutral again (the
  // simulator's TimedOut path relies on this between measurements).
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("ost:0:degrade:0.5@1-100,rpc:drop:0.25@1-100");
  FaultInjector injector{engine, plan, 2, 3};
  injector.arm();

  engine.runUntil(10.0);  // inside both windows
  EXPECT_GT(engine.openWindows(), 0u);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 2.0);
  EXPECT_DOUBLE_EQ(injector.rpcDropProbability(), 0.25);

  engine.cancelOpenWindows();
  EXPECT_EQ(engine.openWindows(), 0u);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 1.0);
  EXPECT_DOUBLE_EQ(injector.rpcDropProbability(), 0.0);
  // Idempotent: the stranded close edges firing later must not double-close.
  engine.run();
  EXPECT_EQ(engine.openWindows(), 0u);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 1.0);
}

TEST(FaultInjector, EventsBeyondOstCountAreIgnored) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec("ost:9:degrade:0.5@0-10");
  FaultInjector injector{engine, plan, 2, 1};
  injector.arm();
  engine.run();
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 1.0);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(1), 1.0);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(9), 1.0);  // out-of-range query
}

// Agent-layer faults live at the inference boundary, not in the simulator:
// an llm-only plan must schedule zero windows and leave every hot-path
// query at its neutral value (ISSUE 7 — the ML-FAULTFREE law depends on it).
TEST(FaultInjector, LlmKindsAreInvisibleToTheSimulator) {
  sim::SimEngine engine;
  const FaultPlan plan = parseFaultSpec(
      "llm:timeout:1@0-999,llm:bad-knob:1@0-999,llm:stale:1:claude@0-999");
  FaultInjector injector{engine, plan, 4, 99};
  injector.arm();
  EXPECT_TRUE(engine.empty());  // no window edges were scheduled at all
  engine.run();
  EXPECT_EQ(injector.windowsOpened(), 0u);
  EXPECT_DOUBLE_EQ(injector.ostSlowdown(0), 1.0);
  EXPECT_FALSE(injector.ostDown(0));
  EXPECT_DOUBLE_EQ(injector.rpcDropProbability(), 0.0);
  EXPECT_DOUBLE_EQ(injector.mdsSlowdown(), 1.0);
  EXPECT_DOUBLE_EQ(plan.noiseMultiplierOver(100.0), 1.0);
}

}  // namespace
}  // namespace stellar::faults
