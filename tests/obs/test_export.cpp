#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/json.hpp"

namespace obs = stellar::obs;
using stellar::util::Json;

namespace {

std::vector<obs::TraceRecord> sampleRecords() {
  obs::Tracer tracer;
  {
    obs::Tracer::Span outer = tracer.span("tuning", "tune:IOR_64K");
    obs::Tracer::Span inner = tracer.span("sim", "event-loop");
    tracer.instant("rpc", "write",
                   {{"ost", Json(static_cast<std::int64_t>(2))},
                    {"bytes", Json(65536.0)}});
  }
  return tracer.snapshot();
}

}  // namespace

TEST(Export, ChromeTraceShape) {
  const Json doc = obs::toChromeTrace(sampleRecords());
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.getString("displayTimeUnit"), "ms");
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_EQ(events.size(), 3u);

  bool sawSpan = false;
  bool sawInstant = false;
  for (const Json& event : events) {
    EXPECT_FALSE(event.getString("name").empty());
    EXPECT_FALSE(event.getString("cat").empty());
    EXPECT_EQ(event.getNumber("pid"), 1.0);
    const std::string ph = event.getString("ph");
    if (ph == "X") {
      sawSpan = true;
      EXPECT_TRUE(event.contains("dur"));
    } else {
      ASSERT_EQ(ph, "i");
      sawInstant = true;
      EXPECT_EQ(event.getString("s"), "t");
      EXPECT_FALSE(event.contains("dur"));
    }
  }
  EXPECT_TRUE(sawSpan);
  EXPECT_TRUE(sawInstant);

  // Instant args survive export.
  const Json& instant = events[0];  // chronological: instant committed first
  ASSERT_TRUE(instant.contains("args"));
  EXPECT_EQ(instant.at("args").getNumber("ost"), 2.0);
  EXPECT_EQ(instant.at("args").getNumber("bytes"), 65536.0);
}

TEST(Export, ChromeTraceDumpParsesBack) {
  // The CLI writes dump(1); make sure that text is valid JSON with the
  // structure chrome://tracing expects at the top level.
  const std::string text = obs::toChromeTrace(sampleRecords()).dump(1);
  const Json parsed = Json::parse(text);
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_TRUE(parsed.at("traceEvents").isArray());
}
