// Discrete-event engine semantics: ordering, determinism, clamping, the
// callback slot store under growth from inside a running callback, and
// continuations parked in that store.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace stellar::sim {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.scheduleAt(3.0, [&] { order.push_back(3); });
  engine.scheduleAt(1.0, [&] { order.push_back(1); });
  engine.scheduleAt(2.0, [&] { order.push_back(2); });
  const double end = engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(end, 3.0);
}

TEST(SimEngine, SimultaneousEventsAreFifo) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.scheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimEngine, EventsCanScheduleMoreEvents) {
  SimEngine engine;
  int depth = 0;
  // Self-scheduling closure: each event schedules the next link of a chain
  // that lives outside the engine.
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      engine.scheduleAfter(0.5, [&] { chain(); });
    }
  };
  engine.scheduleAt(0.0, [&] { chain(); });
  const double end = engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(end, 49.5);
}

TEST(SimEngine, PastTimesClampToNow) {
  SimEngine engine;
  double observed = -1.0;
  engine.scheduleAt(5.0, [&] {
    engine.scheduleAt(1.0, [&] { observed = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 5.0);
}

TEST(SimEngine, NegativeDelayClampsToZero) {
  SimEngine engine;
  double observed = -1.0;
  engine.scheduleAfter(-3.0, [&] { observed = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 0.0);
}

TEST(SimEngine, RunUntilStopsAtLimit) {
  SimEngine engine;
  int fired = 0;
  engine.scheduleAt(1.0, [&] { ++fired; });
  engine.scheduleAt(2.0, [&] { ++fired; });
  engine.scheduleAt(10.0, [&] { ++fired; });
  // The queue is not drained, so the clock stays at the last dispatched
  // event instead of advancing to the limit.
  EXPECT_DOUBLE_EQ(engine.runUntil(5.0), 2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimEngine, CountsProcessedEvents) {
  SimEngine engine;
  for (int i = 0; i < 7; ++i) {
    engine.scheduleAt(i, [] {});
  }
  engine.run();
  EXPECT_EQ(engine.eventsProcessed(), 7u);
}

// Schedules kBurst events one second out — enough to grow the slot store
// by several chunks in one go.
constexpr int kBurst = 10'000;

void scheduleBurst(SimEngine& engine, int& fired) {
  for (int i = 0; i < kBurst; ++i) {
    engine.scheduleAfter(1.0, [&fired] { ++fired; });
  }
}

TEST(SimEngine, CallbackKeepsItsCapturesWhileGrowingTheSlotStore) {
  // A dispatched callback runs in place in its slot. Scheduling 10,000
  // events from inside it grows the store; its captures must read back
  // intact afterwards, both when the closure sits inline in the slot and
  // when it spilled to the heap.
  SimEngine engine;
  int fired = 0;
  std::uint64_t inlineSeen = 0;
  std::uint64_t spilledSeen = 0;
  engine.scheduleAt(0.0, [&engine, &fired, &inlineSeen,
                          marker = std::uint64_t{0xC0FFEE}] {
    scheduleBurst(engine, fired);
    inlineSeen = marker;
  });
  std::array<std::uint64_t, 16> big{};
  big.fill(0xBEEF);
  engine.scheduleAt(0.5, [&engine, &fired, &spilledSeen, big] {
    scheduleBurst(engine, fired);
    spilledSeen = big.front() + big.back();
  });
  engine.run();
  EXPECT_EQ(fired, 2 * kBurst);
  EXPECT_EQ(inlineSeen, 0xC0FFEEu);
  EXPECT_EQ(spilledSeen, 2 * 0xBEEFu);
  EXPECT_EQ(engine.eventsProcessed(), 2u + 2u * kBurst);
  EXPECT_TRUE(engine.empty());
}

TEST(SimEngine, ParkedCallbackTakesItsSeqWhenScheduled) {
  // Parking queues nothing: a continuation parked first but scheduled
  // after a fresh callback at the same timestamp runs after it.
  SimEngine engine;
  std::vector<int> order;
  Parked parked = engine.park([&order] { order.push_back(1); });
  engine.scheduleAt(1.0, [&order] { order.push_back(2); });
  engine.scheduleAt(1.0, std::move(parked));
  EXPECT_FALSE(static_cast<bool>(parked));  // NOLINT(bugprone-use-after-move)
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(engine.eventsProcessed(), 2u);
}

TEST(SimEngine, ParkedRunKeepsItsCapturesWhileGrowingTheSlotStore) {
  // run() invokes a parked continuation in place in its slot, like
  // dispatch; growing the store from inside it must leave its captures
  // intact, inline or spilled, and run() itself does not move the clock.
  SimEngine engine;
  int fired = 0;
  std::uint64_t inlineSeen = 0;
  std::uint64_t spilledSeen = 0;
  Parked small = engine.park([&engine, &fired, &inlineSeen,
                              marker = std::uint64_t{0xC0FFEE}] {
    scheduleBurst(engine, fired);
    inlineSeen = marker;
  });
  std::array<std::uint64_t, 16> big{};
  big.fill(0xBEEF);
  Parked large = engine.park([&engine, &fired, &spilledSeen, big] {
    scheduleBurst(engine, fired);
    spilledSeen = big.front() + big.back();
  });
  engine.scheduleAt(0.5, [&engine, &small, &large] {
    engine.run(std::move(small));
    engine.run(std::move(large));
  });
  engine.run();
  EXPECT_EQ(fired, 2 * kBurst);
  EXPECT_EQ(inlineSeen, 0xC0FFEEu);
  EXPECT_EQ(spilledSeen, 2 * 0xBEEFu);
  EXPECT_EQ(engine.eventsProcessed(), 1u + 2u * kBurst);
  EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

TEST(SimEngine, ParkedContinuationsReleaseTheirCapturesAtTeardown) {
  // A capped run can end with continuations still parked (an RPC whose
  // reply lies past the cap). The engine owns them: destroying it
  // releases their captures, inline and spilled alike.
  auto token = std::make_shared<int>(7);
  {
    SimEngine engine;
    Parked small;
    Parked large;
    engine.scheduleAt(1.0, [&engine, &small, &large, token] {
      small = engine.park([token] { (void)*token; });
      std::array<double, 16> padding{};
      large = engine.park([token, padding] { (void)*token; (void)padding; });
    });
    engine.scheduleAt(10.0, [&engine, &small, &large] {
      engine.run(std::move(small));
      engine.run(std::move(large));
    });
    engine.runUntil(5.0);
    EXPECT_TRUE(static_cast<bool>(small));
    EXPECT_TRUE(static_cast<bool>(large));
    EXPECT_EQ(token.use_count(), 3);  // the two parked continuations
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimEngine, CountsSpilledCallbacksIntoTheRegistry) {
  SimEngine engine;
  obs::CounterRegistry registry;
  engine.attachObservability(nullptr, &registry);
  std::array<double, 16> padding{};
  engine.scheduleAt(1.0, [] {});
  engine.scheduleAt(2.0, [padding] { (void)padding; });
  Parked parked = engine.park([padding] { (void)padding; });
  engine.scheduleAt(3.0, std::move(parked));
  engine.run();
  EXPECT_EQ(registry.counter("sim.callbacks_spilled").value(), 2.0);
  EXPECT_EQ(registry.counter("sim.events_dispatched").value(), 3.0);
}

TEST(SimEngine, WindowCallbacksKeepTheirCapturesWhileGrowingTheSlotStore) {
  // The same growth from a window's open and close edges: both run from
  // the window record, called by the engine's edge closures.
  SimEngine engine;
  int fired = 0;
  std::uint64_t openSeen = 0;
  std::uint64_t closeSeen = 0;
  engine.scheduleWindow(
      1.0, 2.0,
      [&engine, &fired, &openSeen, marker = std::uint64_t{0x09E4}] {
        scheduleBurst(engine, fired);
        openSeen = marker;
      },
      [&engine, &fired, &closeSeen, marker = std::uint64_t{0xC105E}] {
        scheduleBurst(engine, fired);
        closeSeen = marker;
      });
  engine.run();
  EXPECT_EQ(fired, 2 * kBurst);
  EXPECT_EQ(openSeen, 0x09E4u);
  EXPECT_EQ(closeSeen, 0xC105Eu);
  EXPECT_EQ(engine.openWindows(), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngine, CancelOpenWindowsFiresOutstandingCloseHandlers) {
  SimEngine engine;
  std::vector<int> closed;
  engine.scheduleWindow(1.0, 10.0, [] {}, [&] { closed.push_back(1); });
  engine.scheduleWindow(2.0, 20.0, [] {}, [&] { closed.push_back(2); });
  engine.scheduleWindow(8.0, 9.0, [] {}, [&] { closed.push_back(3); });
  engine.runUntil(5.0);
  EXPECT_EQ(engine.openWindows(), 2u);
  engine.cancelOpenWindows();
  EXPECT_EQ(engine.openWindows(), 0u);
  // Creation order, and the never-opened window (begin 8.0) is untouched.
  EXPECT_EQ(closed, (std::vector<int>{1, 2}));
  // Resuming the run must not double-fire the cancelled close edges.
  engine.run();
  EXPECT_EQ(closed, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.openWindows(), 0u);
}

}  // namespace
}  // namespace stellar::sim
