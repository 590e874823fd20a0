// Multi-server FIFO queueing semantics, per lane of a ServiceCenterBank.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/service_center.hpp"

namespace stellar::sim {
namespace {

TEST(ServiceCenter, SingleServerSerializes) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 1};
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    center.submit(0, 1.0, [&] { completions.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 2.0);
  EXPECT_DOUBLE_EQ(completions[2], 3.0);
}

TEST(ServiceCenter, MultiServerRunsInParallel) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 3};
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    center.submit(0, 1.0, [&] { completions.push_back(engine.now()); });
  }
  engine.run();
  for (const double t : completions) {
    EXPECT_DOUBLE_EQ(t, 1.0);
  }
}

TEST(ServiceCenter, QueueDrainsFifo) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 2};
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    center.submit(0, 1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ServiceCenter, LateArrivalsQueueBehindBusyServers) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 1};
  double secondDone = 0.0;
  center.submit(0, 5.0, [] {});
  engine.scheduleAt(1.0, [&] {
    center.submit(0, 1.0, [&] { secondDone = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(secondDone, 6.0);  // waits for the 5s job
}

TEST(ServiceCenter, TracksBusyTimeAndPeakQueue) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 1};
  for (int i = 0; i < 4; ++i) {
    center.submit(0, 2.0, [] {});
  }
  EXPECT_EQ(center.peakQueue(0), 3u);
  EXPECT_EQ(center.queued(0), 3u);
  engine.run();
  EXPECT_DOUBLE_EQ(center.busyTime(0), 8.0);
  EXPECT_EQ(center.queued(0), 0u);
}

TEST(ServiceCenter, NegativeServiceTimeTreatedAsZero) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 1};
  bool done = false;
  center.submit(0, -1.0, [&] { done = true; });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_DOUBLE_EQ(center.busyTime(0), 0.0);
}

TEST(ServiceCenter, MinimumOneServer) {
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 0};
  std::vector<double> completions;
  for (int i = 0; i < 2; ++i) {
    center.submit(0, 1.0, [&] { completions.push_back(engine.now()); });
  }
  engine.run();
  // Zero servers floor at one: both requests run, one after the other.
  EXPECT_EQ(completions, (std::vector<double>{1.0, 2.0}));
}

TEST(ServiceCenter, BacklogThatNeverDrainsStaysFifo) {
  // Arrivals outpace the single server, so the queue never empties while
  // its front is served and its storage is reclaimed.
  SimEngine engine;
  ServiceCenterBank center{engine, 1, 1};
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    engine.scheduleAt(0.75 * i, [&center, &order, i] {
      center.submit(0, 1.0, [&order, i] { order.push_back(i); });
    });
  }
  engine.run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_DOUBLE_EQ(engine.now(), 300.0);  // the server never idled
}

TEST(ServiceCenter, LanesAreIndependentCenters) {
  SimEngine engine;
  ServiceCenterBank bank{engine, /*lanes=*/3, /*servers=*/1};
  std::vector<double> lane0;
  std::vector<double> lane2;
  for (int i = 0; i < 3; ++i) {
    bank.submit(0, 1.0, [&] { lane0.push_back(engine.now()); });
    bank.submit(2, 2.0, [&] { lane2.push_back(engine.now()); });
  }
  // Each lane queues behind its own single server only.
  EXPECT_EQ(bank.queued(0), 2u);
  EXPECT_EQ(bank.queued(1), 0u);
  EXPECT_EQ(bank.queued(2), 2u);
  engine.run();
  EXPECT_EQ(lane0, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(lane2, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_DOUBLE_EQ(bank.busyTime(0), 3.0);
  EXPECT_DOUBLE_EQ(bank.busyTime(1), 0.0);  // the idle lane did no work
  EXPECT_DOUBLE_EQ(bank.busyTime(2), 6.0);
  EXPECT_EQ(bank.peakQueue(1), 0u);
  EXPECT_EQ(bank.laneCount(), 3u);
}

}  // namespace
}  // namespace stellar::sim
