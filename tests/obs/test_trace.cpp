#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace obs = stellar::obs;
using stellar::util::Json;

namespace {

const obs::TraceRecord* findByName(const std::vector<obs::TraceRecord>& records,
                                   const std::string& name) {
  for (const obs::TraceRecord& r : records) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

TEST(Trace, SpanRecordsOnEnd) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span span = tracer.span("sim", "drain");
    span.arg("events", Json(static_cast<std::int64_t>(42)));
    EXPECT_EQ(tracer.recorded(), 0u);  // in-flight spans are not committed
  }
  EXPECT_EQ(tracer.recorded(), 1u);
  const std::vector<obs::TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].phase, obs::TraceRecord::Phase::Span);
  EXPECT_EQ(records[0].category, "sim");
  EXPECT_EQ(records[0].name, "drain");
  EXPECT_GE(records[0].durUs, 0.0);
  ASSERT_EQ(records[0].args.size(), 1u);
  EXPECT_EQ(records[0].args[0].key, "events");
  EXPECT_EQ(records[0].args[0].value.asInteger<std::int64_t>(), 42);
}

TEST(Trace, EndIsIdempotent) {
  obs::Tracer tracer;
  obs::Tracer::Span span = tracer.span("sim", "once");
  span.end();
  span.end();
  EXPECT_EQ(tracer.recorded(), 1u);
  // Args after end() are dropped silently.
  span.arg("late", Json(1.0));
  EXPECT_TRUE(tracer.snapshot()[0].args.empty());
}

TEST(Trace, NestedSpansTrackDepth) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span outer = tracer.span("tuning", "outer");
    {
      obs::Tracer::Span inner = tracer.span("tuning", "inner");
      obs::Tracer::Span innermost = tracer.span("tuning", "innermost");
    }
  }
  const std::vector<obs::TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(findByName(records, "outer")->depth, 0u);
  EXPECT_EQ(findByName(records, "inner")->depth, 1u);
  EXPECT_EQ(findByName(records, "innermost")->depth, 2u);
  // All on the same thread, and the outer span encloses the inner ones.
  EXPECT_EQ(findByName(records, "inner")->tid, findByName(records, "outer")->tid);
  EXPECT_LE(findByName(records, "outer")->startUs, findByName(records, "inner")->startUs);
}

TEST(Trace, MovedFromSpanIsInert) {
  obs::Tracer tracer;
  obs::Tracer::Span a = tracer.span("sim", "moved");
  obs::Tracer::Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): inert by contract
  EXPECT_TRUE(b.active());
  a.end();
  EXPECT_EQ(tracer.recorded(), 0u);
  b.end();
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer tracer{{.enabled = false}};
  {
    obs::Tracer::Span span = tracer.span("sim", "ghost");
    span.arg("x", Json(1.0));
    tracer.instant("rpc", "ghost-instant");
  }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());

  // The null-safe helpers share the contract, including for nullptr.
  obs::beginSpan(nullptr, "sim", "null").end();
  obs::instant(nullptr, "sim", "null");
  obs::beginSpan(&tracer, "sim", "off").end();
  obs::instant(&tracer, "sim", "off");
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Trace, InstantRecordsImmediately) {
  obs::Tracer tracer;
  tracer.instant("rpc", "write", {{"bytes", Json(static_cast<std::int64_t>(4096))}});
  const std::vector<obs::TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].phase, obs::TraceRecord::Phase::Instant);
  EXPECT_DOUBLE_EQ(records[0].durUs, 0.0);
  ASSERT_EQ(records[0].args.size(), 1u);
  EXPECT_EQ(records[0].args[0].value.asInteger<std::int64_t>(), 4096);
}

TEST(Trace, RingDropsOldestBeyondCapacity) {
  obs::Tracer tracer{{.enabled = true, .capacity = 4}};
  for (int i = 0; i < 10; ++i) {
    tracer.instant("sim", "e" + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<obs::TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Chronological order, oldest surviving first.
  EXPECT_EQ(records[0].name, "e6");
  EXPECT_EQ(records[3].name, "e9");
}

TEST(Trace, ClearEmptiesRing) {
  obs::Tracer tracer;
  tracer.instant("sim", "x");
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, ConcurrentCommitsAreSafeAndTagged) {
  obs::Tracer tracer{{.enabled = true, .capacity = 1 << 12}};
  constexpr int kThreads = 4;
  constexpr int kEach = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kEach; ++i) {
        obs::Tracer::Span span = tracer.span("harness", "work");
        span.arg("i", Json(static_cast<std::int64_t>(i)));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(kThreads * kEach));
  std::vector<std::uint32_t> tids;
  for (const obs::TraceRecord& r : tracer.snapshot()) {
    if (std::find(tids.begin(), tids.end(), r.tid) == tids.end()) {
      tids.push_back(r.tid);
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}
