// SessionJournal: append/load round-trips, header binding, torn-line
// recovery, and the exact-bits wall-time encoding (ISSUE 7).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "agents/transcript.hpp"
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
    journal.recordMeasurement(0, {29.1234, "ok", ""});
    journal.recordMeasurement(1, {5.678, "failed", "config rejected"});
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
    journal.recordMeasurement(0, {gnarly, "ok", ""});
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
    journal.recordMeasurement(0, {1.5, "ok", ""});
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
  reloaded.recordMeasurement(1, {2.5, "ok", ""});
  SessionJournal again{path};
  EXPECT_EQ(again.measurementCount(), 2u);
}

TEST(SessionJournal, OutOfRangeIndexIsSkippedAsCorrupt) {
  const std::string path = journalPath("badindex");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.recordMeasurement(0, {1.5, "ok", ""});
  }
  // No writer emits these indexes; a corrupt or hand-edited journal can.
  util::appendToFile(path,
                     R"({"type":"measurement","index":-1,"wall_seconds":2.5,"outcome":"ok"})"
                     "\n"
                     R"({"type":"measurement","index":1e300,"wall_seconds":2.5,"outcome":"ok"})"
                     "\n");
  SessionJournal reloaded{path};
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 2u);
  EXPECT_EQ(reloaded.measurementCount(), 1u);
  ASSERT_TRUE(reloaded.replay(0).has_value());
  EXPECT_EQ(reloaded.replay(0)->wallSeconds, 1.5);
}

TEST(SessionJournal, TranscriptSyncWritesOnlyTheTail) {
  const std::string path = journalPath("transcript");
  agents::Transcript transcript;
  transcript.add("engine", "start", "first event");
  transcript.add("agent", "decision", "second event");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    journal.syncTranscript(transcript);
    EXPECT_EQ(journal.transcriptEventsJournaled(), 2u);
    // Syncing again with no new events appends nothing.
    journal.syncTranscript(transcript);
    EXPECT_EQ(journal.transcriptEventsJournaled(), 2u);
  }
  const std::string before = util::readFile(path);
  // A resumed run regenerates the same events, then adds one more: only
  // the new tail is appended.
  SessionJournal resumed{path};
  EXPECT_EQ(resumed.transcriptEventsJournaled(), 2u);
  transcript.add("agent", "decision", "third event");
  resumed.syncTranscript(transcript);
  const std::string after = util::readFile(path);
  EXPECT_EQ(after.substr(0, before.size()), before);
  EXPECT_NE(after.find("third event"), std::string::npos);
  EXPECT_EQ(after.find("second event"), after.rfind("second event"));  // once
}

TEST(SessionJournal, MarkCompleteIsSticky) {
  const std::string path = journalPath("complete");
  {
    SessionJournal journal{path};
    journal.bind(makeHeader("IOR_16M"));
    util::Json summary = util::Json::makeObject();
    summary.set("best_seconds", 5.5);
    journal.markComplete(summary);
    journal.markComplete(summary);  // idempotent
  }
  SessionJournal reloaded{path};
  EXPECT_TRUE(reloaded.complete());
}

TEST(SessionJournal, EmptyPathIsMemoryOnly) {
  SessionJournal journal{""};
  journal.bind(makeHeader("IOR_16M"));
  journal.recordMeasurement(0, {1.0, "ok", ""});
  EXPECT_EQ(journal.measurementCount(), 1u);
  ASSERT_TRUE(journal.replay(0).has_value());
}

}  // namespace
}  // namespace stellar::core
