// SessionJournal: append/load round-trips, header binding, torn-line
// recovery, the exact-bits wall-time and seed encoding, and the sticky
// final result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/session_journal.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace stellar::core {
namespace {

std::string journalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "session_" + name + ".jsonl";
  (void)std::remove(path.c_str());
  return path;
}

util::Json makeHeader(const std::string& workload) {
  util::Json header = util::Json::makeObject();
  header.set("type", "header");
  header.set("workload", workload);
  header.set("seed", static_cast<std::int64_t>(42));
  return header;
}

TEST(SessionJournal, FreshJournalIsEmpty) {
  SessionJournal journal{journalPath("fresh")};
  EXPECT_FALSE(journal.bound());
  EXPECT_FALSE(journal.complete());
  EXPECT_EQ(journal.measurementCount(), 0u);
  EXPECT_EQ(journal.replay(0), std::nullopt);
}

TEST(SessionJournal, MeasurementsRoundTripAcrossReload) {
  const std::string path = journalPath("roundtrip");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {29.1234, "ok", "", {}, 0});
    journal.recordMeasurement(1, {5.678, "failed", "config rejected", {}, 0});
  }
  SessionJournal reloaded{path};
  EXPECT_TRUE(reloaded.bound());
  EXPECT_EQ(reloaded.measurementCount(), 2u);
  const auto m0 = reloaded.replay(0);
  ASSERT_TRUE(m0.has_value());
  EXPECT_EQ(m0->wallSeconds, 29.1234);
  EXPECT_EQ(m0->outcome, "ok");
  const auto m1 = reloaded.replay(1);
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(m1->outcome, "failed");
  EXPECT_EQ(m1->failureReason, "config rejected");
  EXPECT_EQ(reloaded.replay(2), std::nullopt);
}

TEST(SessionJournal, WallSecondsRoundTripExactBits) {
  // JSON numbers print through %.12g — lossy for doubles. The journal must
  // restore the exact IEEE-754 bits or resumed comparisons could flip.
  const std::string path = journalPath("bits");
  const double gnarly = 29.123456789012345678;  // does not survive %.12g
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {gnarly, "ok", "", {}, 0});
  }
  SessionJournal reloaded{path};
  const auto m = reloaded.replay(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->wallSeconds, gnarly);  // exact equality, not near
}

TEST(SessionJournal, BindVerifiesSessionIdentity) {
  const std::string path = journalPath("identity");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
  }
  // Same header: resumes quietly.
  {
    SessionJournal journal{path};
    EXPECT_NO_THROW(journal.bind(makeHeader("IOR_16M")));
  }
  // Different session: replaying its measurements would be corruption.
  SessionJournal journal{path};
  EXPECT_THROW(journal.bind(makeHeader("MDWorkbench_2K")), std::runtime_error);
}

TEST(SessionJournal, TornTailLineIsSkippedNotFatal) {
  const std::string path = journalPath("torn");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {1.5, "ok", "", {}, 0});
  }
  // A SIGKILL mid-write leaves a truncated JSON line at the tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"type\":\"measurement\",\"index\":1,\"wall_se";
    std::fwrite(torn, 1, sizeof torn - 1, f);
    std::fclose(f);
  }
  SessionJournal reloaded{path};
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 1u);
  EXPECT_EQ(reloaded.measurementCount(), 1u);  // the torn index 1 is gone
  EXPECT_EQ(reloaded.replay(1), std::nullopt);
  // The journal stays writable: the resumed run re-measures index 1.
  reloaded.bind(makeHeader("IOR_16M"));
  reloaded.recordMeasurement(1, {2.5, "ok", "", {}, 0});
  SessionJournal again{path};
  EXPECT_EQ(again.measurementCount(), 2u);
}

TEST(SessionJournal, OutOfRangeIndexIsSkippedAsCorrupt) {
  const std::string path = journalPath("badindex");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {1.5, "ok", "", {}, 0});
  }
  // No writer emits these indexes; a corrupt or hand-edited journal can.
  // Each line is otherwise whole, so the index alone makes it corrupt.
  for (const double index : {-1.0, 1e300}) {
    util::Json line = util::Json::makeObject();
    line.set("type", "measurement");
    line.set("index", index);
    line.set("config", pfs::PfsConfig{}.toJson());
    line.set("seed", "0000000000000000");
    line.set("wall_seconds", 2.5);
    line.set("outcome", "ok");
    util::appendJsonLine(path, line);
  }
  SessionJournal reloaded{path};
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 2u);
  EXPECT_EQ(reloaded.measurementCount(), 1u);
  ASSERT_TRUE(reloaded.replay(0).has_value());
  EXPECT_EQ(reloaded.replay(0)->wallSeconds, 1.5);
}

TEST(SessionJournal, MarkCompleteIsSticky) {
  const std::string path = journalPath("complete");
  util::Json result = util::Json::makeObject();
  result.set("best_seconds", 5.5);
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.markComplete(result);
    util::Json later = util::Json::makeObject();
    later.set("best_seconds", 9.9);
    journal.markComplete(later);  // sticky: the first result stays
    ASSERT_TRUE(journal.result().has_value());
    EXPECT_EQ(journal.result()->dump(), result.dump());
  }
  SessionJournal reloaded{path};
  EXPECT_TRUE(reloaded.complete());
  ASSERT_TRUE(reloaded.result().has_value());
  EXPECT_EQ(reloaded.result()->dump(), result.dump());
  // One final line on disk, not two.
  const std::string text = util::readFile(path);
  EXPECT_EQ(text.find("\"final\""), text.rfind("\"final\""));
}

TEST(SessionJournal, MeasurementsBindTheirConfigAndSeedExactly) {
  const std::string path = journalPath("binding");
  pfs::PfsConfig config;
  config.stripe_count = 8;
  config.osc_max_rpcs_in_flight = 32;
  // Above 2^53: a JSON number (a double) would round it.
  const std::uint64_t seed = 0xFEDCBA9876543211ULL;
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {1.5, "ok", "", config, seed});
  }
  SessionJournal reloaded{path};
  const auto m = reloaded.replay(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->config, config);
  EXPECT_EQ(m->seed, seed);
}

TEST(SessionJournal, UnboundMeasurementAndResultlessFinalAreCorrupt) {
  // A measurement line must name what it measured, and a final line must
  // carry the result it marks complete; otherwise neither can be replayed.
  const std::string path = journalPath("unbound");
  util::writeFile(
      path, makeHeader("IOR_16M").dump() + "\n" +
                R"({"type":"measurement","index":0,"wall_seconds":2.5,"outcome":"ok"})"
                "\n"
                R"({"type":"final","summary":{"best_seconds":2.5}})"
                "\n");
  SessionJournal journal{path};
  EXPECT_TRUE(journal.bound());
  EXPECT_EQ(journal.corruptLinesSkipped(), 2u);
  EXPECT_EQ(journal.measurementCount(), 0u);
  EXPECT_FALSE(journal.complete());
}

}  // namespace
}  // namespace stellar::core
