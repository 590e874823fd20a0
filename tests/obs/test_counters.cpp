#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace obs = stellar::obs;

TEST(Counters, CounterAddsAndResets) {
  obs::CounterRegistry registry;
  obs::Counter& c = registry.counter("pfs.rpc.data");
  c.add();
  c.add(4.5);
  EXPECT_DOUBLE_EQ(c.value(), 5.5);
  registry.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  // Registration survives a reset.
  EXPECT_EQ(registry.snapshot().size(), 1u);
}

TEST(Counters, FindOrCreateReturnsSameCell) {
  obs::CounterRegistry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(2.0);
  EXPECT_DOUBLE_EQ(b.value(), 2.0);
}

TEST(Counters, LabelsDistinguishInstancesAndOrderDoesNot) {
  obs::CounterRegistry registry;
  registry.counter("pfs.ost.seeks", {{"ost", "0"}}).add(3.0);
  registry.counter("pfs.ost.seeks", {{"ost", "1"}}).add(7.0);
  // Same labels in a different order resolve to the same cell.
  registry.counter("m", {{"a", "1"}, {"b", "2"}}).add(1.0);
  registry.counter("m", {{"b", "2"}, {"a", "1"}}).add(1.0);

  EXPECT_EQ(registry.snapshot().size(), 3u);
  EXPECT_DOUBLE_EQ(registry.counter("pfs.ost.seeks", {{"ost", "0"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.counter("pfs.ost.seeks", {{"ost", "1"}}).value(), 7.0);
  EXPECT_DOUBLE_EQ(registry.counter("m", {{"a", "1"}, {"b", "2"}}).value(), 2.0);
}

TEST(Counters, KindMismatchThrows) {
  obs::CounterRegistry registry;
  (void)registry.counter("metric");
  EXPECT_THROW((void)registry.gauge("metric"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("metric"), std::logic_error);
}

TEST(Counters, GaugeSetAndSetMax) {
  obs::CounterRegistry registry;
  obs::Gauge& g = registry.gauge("queue_depth");
  g.set(5.0);
  g.setMax(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.setMax(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(Counters, HistogramObserveAggregates) {
  obs::CounterRegistry registry;
  obs::Histogram& h = registry.histogram("latency", {}, {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  const obs::HistogramData data = h.data();
  EXPECT_EQ(data.count, 4u);
  EXPECT_DOUBLE_EQ(data.sum, 555.5);
  EXPECT_DOUBLE_EQ(data.minValue, 0.5);
  EXPECT_DOUBLE_EQ(data.maxValue, 500.0);
  ASSERT_EQ(data.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[2], 1u);
  EXPECT_EQ(data.buckets[3], 1u);
}

TEST(Counters, SnapshotIsRegistrationOrdered) {
  obs::CounterRegistry registry;
  registry.counter("b.second").add(1.0);
  registry.gauge("a.first").set(2.0);
  registry.counter("c.third", {{"k", "v"}}).add(3.0);

  const std::vector<obs::MetricSample> snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].key.name, "b.second");
  EXPECT_EQ(snap[0].kind, obs::MetricSample::Kind::Counter);
  EXPECT_DOUBLE_EQ(snap[0].value, 1.0);
  EXPECT_EQ(snap[1].key.name, "a.first");
  EXPECT_EQ(snap[1].kind, obs::MetricSample::Kind::Gauge);
  EXPECT_EQ(snap[2].key.name, "c.third");
  ASSERT_EQ(snap[2].key.labels.size(), 1u);
  EXPECT_EQ(snap[2].key.labels[0].first, "k");
}

TEST(Counters, ConcurrentFindOrCreateAndAdd) {
  obs::CounterRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kAdds; ++i) {
        registry.counter("shared").add();
        registry.counter("labelled", {{"i", std::to_string(i % 4)}}).add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(registry.counter("shared").value(), kThreads * kAdds);
  double labelled = 0.0;
  for (int i = 0; i < 4; ++i) {
    labelled += registry.counter("labelled", {{"i", std::to_string(i)}}).value();
  }
  EXPECT_DOUBLE_EQ(labelled, kThreads * kAdds);
}
