// Counting-semaphore semantics of the in-flight RPC caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/flow_limiter.hpp"

namespace stellar::sim {
namespace {

/// Single-semaphore reference for one lane of FlowLimiterBank: the plain
/// FIFO counting semaphore the bank's per-lane semantics must match, with
/// a waiter admitted on release as a fresh event. Its waiters queue as
/// std::functions, where the bank parks them in the engine's slot store.
class FlowLimiter {
 public:
  FlowLimiter(SimEngine& engine, std::uint32_t limit)
      : engine_(engine), limit_(std::max<std::uint32_t>(1, limit)) {}

  void acquire(std::function<void()> onAcquired) {
    if (inFlight_ < limit_) {
      ++inFlight_;
      onAcquired();
    } else {
      waiting_.push_back(std::move(onAcquired));
    }
  }

  void release() {
    if (inFlight_ > 0) {
      --inFlight_;
    }
    admitWaiters();
  }

  [[nodiscard]] std::uint32_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::uint32_t inFlight() const noexcept { return inFlight_; }
  [[nodiscard]] std::size_t waiters() const noexcept { return waiting_.size(); }

 private:
  void admitWaiters() {
    while (!waiting_.empty() && inFlight_ < limit_) {
      ++inFlight_;
      engine_.scheduleAfter(0.0, std::move(waiting_.front()));
      waiting_.pop_front();
    }
  }

  SimEngine& engine_;
  std::uint32_t limit_;
  std::uint32_t inFlight_ = 0;
  std::deque<std::function<void()>> waiting_;
};

TEST(FlowLimiter, AdmitsUpToLimitImmediately) {
  SimEngine engine;
  FlowLimiter limiter{engine, 3};
  int admitted = 0;
  for (int i = 0; i < 5; ++i) {
    limiter.acquire([&] { ++admitted; });
  }
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(limiter.inFlight(), 3u);
  EXPECT_EQ(limiter.waiters(), 2u);
}

TEST(FlowLimiter, ReleaseAdmitsWaitersFifo) {
  SimEngine engine;
  FlowLimiter limiter{engine, 1};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    limiter.acquire([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(order, (std::vector<int>{0}));
  limiter.release();
  limiter.release();  // second release is a no-op floor at 0? no: releases slot for waiter 2
  engine.run();       // queued admissions run as events
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(FlowLimiter, LimitFloorsAtOne) {
  SimEngine engine;
  FlowLimiter limiter{engine, 0};
  EXPECT_EQ(limiter.limit(), 1u);
  bool ran = false;
  limiter.acquire([&] { ran = true; });
  EXPECT_TRUE(ran);
}

// -------------------------------------------------------- FlowLimiterBank

TEST(FlowLimiterBank, LanesAreIndependentSemaphores) {
  SimEngine engine;
  FlowLimiterBank bank{engine, /*lanes=*/4, /*limit=*/2};
  int admitted = 0;
  for (int i = 0; i < 3; ++i) {
    bank.acquire(0, [&] { ++admitted; });
    bank.acquire(3, [&] { ++admitted; });
  }
  // Each lane caps at 2 independently; lane 3's backlog never blocks lane 0.
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(bank.inFlight(0), 2u);
  EXPECT_EQ(bank.inFlight(3), 2u);
  EXPECT_EQ(bank.waiters(0), 1u);
  EXPECT_EQ(bank.waiters(2), 0u);
  EXPECT_EQ(bank.laneCount(), 4u);
}

TEST(FlowLimiterBank, ReleaseAdmitsWaitersFifoPerLane) {
  SimEngine engine;
  FlowLimiterBank bank{engine, 2, 1};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    bank.acquire(1, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(order, (std::vector<int>{0}));
  bank.release(1);
  bank.release(1);
  engine.run();  // queued admissions run as events
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(bank.waiters(1), 0u);
}

TEST(FlowLimiterBank, LimitFloorsAtOne) {
  SimEngine engine;
  FlowLimiterBank bank{engine, 2, 0};
  EXPECT_EQ(bank.limit(), 1u);
  int admitted = 0;
  for (int i = 0; i < 2; ++i) {
    bank.acquire(1, [&] { ++admitted; });
  }
  // A zero limit still admits one holder per lane; the second waits.
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(bank.inFlight(1), 1u);
  EXPECT_EQ(bank.waiters(1), 1u);
  bank.release(1);
  engine.run();
  EXPECT_EQ(admitted, 2);
}

TEST(FlowLimiterBank, MatchesScalarLimiterOnOneLane) {
  // Differential check: a 1-lane bank is behaviorally identical to the
  // scalar FlowLimiter under an interleaved acquire/release trace.
  SimEngine engineA;
  SimEngine engineB;
  FlowLimiter scalar{engineA, 2};
  FlowLimiterBank bank{engineB, 1, 2};
  std::vector<int> scalarOrder;
  std::vector<int> bankOrder;
  for (int i = 0; i < 6; ++i) {
    scalar.acquire([&scalarOrder, i] { scalarOrder.push_back(i); });
    bank.acquire(0, [&bankOrder, i] { bankOrder.push_back(i); });
    if (i % 2 == 1) {
      scalar.release();
      bank.release(0);
    }
  }
  engineA.run();
  engineB.run();
  EXPECT_EQ(scalarOrder, bankOrder);
  EXPECT_EQ(scalar.inFlight(), bank.inFlight(0));
  EXPECT_EQ(scalar.waiters(), bank.waiters(0));
}

}  // namespace
}  // namespace stellar::sim
