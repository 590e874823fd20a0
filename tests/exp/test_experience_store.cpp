#include "exp/experience_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/json.hpp"

namespace stellar::exp {
namespace {

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "exp_store_" + name + ".jsonl";
}

rules::WorkloadContext contextWithReadShare(double readShare) {
  rules::WorkloadContext ctx;
  ctx.metaOpShare = 0.1;
  ctx.readShare = readShare;
  ctx.sequentialShare = 0.8;
  ctx.sharedFileShare = 0.5;
  ctx.smallFileShare = 0.2;
  ctx.dominantAccessSize = 1 << 16;
  ctx.fileCount = 100;
  ctx.totalBytes = 1 << 30;
  return ctx;
}

ExperienceRecord makeRecord(const std::string& workload, double readShare,
                            double bestSeconds = 1.0) {
  ExperienceRecord rec;
  rec.workload = workload;
  rec.fingerprint = fingerprintOf(contextWithReadShare(readShare));
  EXPECT_TRUE(rec.bestConfig.set("lov.stripe_count", 4));
  rec.defaultSeconds = 2.0;
  rec.bestSeconds = bestSeconds;
  rec.attempts = 3;
  rec.endReason = "low expected gain";
  rec.model = "claude-3.7-sonnet";
  rec.seed = 7;
  return rec;
}

/// A finished run filed as `filingId`, carrying its verdict on `recalled`.
/// Its fingerprint (read share 0) is far from the 0.5 the tests recall.
ExperienceRecord judgingRun(const std::string& filingId, core::WarmStartVerdict verdict,
                            std::vector<std::string> recalled) {
  ExperienceRecord rec = makeRecord("judge", 0.0);
  rec.id = filingId;
  rec.recallVerdict = verdict;
  rec.recalledIds = std::move(recalled);
  return rec;
}

constexpr core::WarmStartVerdict kRegressed = core::WarmStartVerdict::Regressed;
constexpr core::WarmStartVerdict kConfirmed = core::WarmStartVerdict::Confirmed;

TEST(ExperienceStore, PersistsAndReloads) {
  const std::string path = tempPath("persist");
  (void)std::remove(path.c_str());
  {
    ExperienceStore store{path, {}};
    EXPECT_EQ(store.size(), 0U);
    EXPECT_EQ(store.absorb({makeRecord("IOR_64K", 0.5), makeRecord("IOR_16M", 0.6)}),
              (std::vector<std::string>{"exp-1", "exp-2"}));
  }
  ExperienceStore reloaded{path, {}};
  EXPECT_EQ(reloaded.size(), 2U);
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
  // Id assignment resumes past the reloaded records.
  EXPECT_EQ(reloaded.absorb({makeRecord("IO500", 0.4)}),
            std::vector<std::string>{"exp-3"});
}

TEST(ExperienceStore, FilingAnExistingIdReplacesLastWins) {
  const std::string path = tempPath("lastwins");
  (void)std::remove(path.c_str());
  ExperienceRecord rec = makeRecord("IOR_64K", 0.5, 1.5);
  rec.id = "cell-a";
  const ExperienceRecord first = rec;
  rec.bestSeconds = 0.9;
  {
    ExperienceStore store{path, {}};
    (void)store.absorb({first});
    (void)store.absorb({rec});
    EXPECT_EQ(store.size(), 1U);
    EXPECT_EQ(store.records()[0].bestSeconds, 0.9);
  }
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 1U);
  EXPECT_EQ(reloaded.records()[0].bestSeconds, 0.9);
  // Load is last-wins by id too, for files that hold both versions.
  util::writeFile(path, first.toJson().dump() + "\n" + rec.toJson().dump() + "\n");
  ExperienceStore both{path, {}};
  ASSERT_EQ(both.size(), 1U);
  EXPECT_EQ(both.records()[0].bestSeconds, 0.9);
}

TEST(ExperienceStore, CorruptLinesAreSkippedWithCountAndStoreStaysUsable) {
  const std::string path = tempPath("corrupt");
  (void)std::remove(path.c_str());
  {
    ExperienceStore store{path, {}};
    (void)store.absorb({makeRecord("IOR_64K", 0.5), makeRecord("IOR_16M", 0.6)});
  }
  // Inject damage: garbage text, a torn (truncated) JSON line, an unknown
  // line type, a record line missing required fields, and a record whose
  // recall verdict is unknown.
  std::string contents = util::readFile(path);
  contents += "this is not json\n";
  contents += "{\"type\":\"record\",\"id\":\"torn\",\"workl\n";
  contents += "{\"type\":\"mystery\",\"id\":\"x\"}\n";
  contents += "{\"type\":\"record\",\"id\":\"incomplete\"}\n";
  util::Json unknownVerdict = makeRecord("IOR_64K", 0.5).toJson();
  unknownVerdict.set("recall", util::Json::parse(
                                   "{\"verdict\":\"neutral\",\"sources\":[\"exp-1\"]}"));
  contents += unknownVerdict.dump() + "\n";
  util::writeFile(path, contents);

  ExperienceStore store{path, {}};
  EXPECT_EQ(store.size(), 2U);
  EXPECT_EQ(store.corruptLinesSkipped(), 5U);
  // Still usable: filings and recalls keep working.
  (void)store.absorb({makeRecord("IO500", 0.4)});
  EXPECT_EQ(store.size(), 3U);
  const auto matches =
      store.recall(fingerprintOf(contextWithReadShare(0.5)), 10, 0.9);
  EXPECT_FALSE(matches.empty());
}

TEST(ExperienceStore, JournalReplayRestoresOutcomeLedger) {
  // Stores written before verdicts rode on records hold `penalize` and
  // `confirm` lines; load still replays them.
  const std::string path = tempPath("journal");
  ExperienceRecord kept = makeRecord("IOR_64K", 0.5);
  kept.id = "exp-1";
  ExperienceRecord doomed = makeRecord("IOR_16M", 0.5);
  doomed.id = "exp-2";
  util::writeFile(path, kept.toJson().dump() + "\n" + doomed.toJson().dump() + "\n" +
                            "{\"type\":\"confirm\",\"id\":\"exp-1\"}\n"
                            "{\"type\":\"confirm\",\"id\":\"exp-1\"}\n"
                            "{\"type\":\"penalize\",\"id\":\"exp-1\"}\n"
                            "{\"type\":\"penalize\",\"id\":\"exp-2\"}\n"
                            "{\"type\":\"penalize\",\"id\":\"exp-2\"}\n"
                            // Lines for unknown ids are ignored on replay.
                            "{\"type\":\"penalize\",\"id\":\"no-such-id\"}\n");
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 2U);
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
  EXPECT_EQ(reloaded.records()[0].confirmations, 3);
  EXPECT_EQ(reloaded.records()[0].regressions, 1);
  // The replayed ledger made exp-2 stale: recall skips it at once, and the
  // next absorb's compaction drops it and folds the ledger into the record
  // lines.
  const auto matches =
      reloaded.recall(fingerprintOf(contextWithReadShare(0.5)), 10, 0.0);
  ASSERT_EQ(matches.size(), 1U);
  EXPECT_EQ(matches[0].record.id, "exp-1");
  (void)reloaded.absorb({});
  EXPECT_EQ(util::readFile(path), reloaded.records()[0].toJson().dump() + "\n");
}

TEST(ExperienceStore, RecallRanksBySimilarityWithDeterministicTieBreak) {
  ExperienceStore store{"", {}};  // memory-only
  ExperienceRecord close = makeRecord("A", 0.5);
  close.id = "b-close";
  ExperienceRecord tie = makeRecord("B", 0.5);  // identical fingerprint
  tie.id = "a-close";
  ExperienceRecord far = makeRecord("C", 0.9);
  far.id = "c-far";
  (void)store.absorb({close, tie, far});

  const Fingerprint query = fingerprintOf(contextWithReadShare(0.5));
  const auto top = store.recall(query, 2, 0.0);
  ASSERT_EQ(top.size(), 2U);
  // Exact ties order by id.
  EXPECT_EQ(top[0].record.id, "a-close");
  EXPECT_EQ(top[1].record.id, "b-close");
  // Threshold filters the distant record.
  for (const auto& match : store.recall(query, 10, 0.999)) {
    EXPECT_NE(match.record.id, "c-far");
  }
}

TEST(ExperienceStore, StaleRecordsAreSkippedByRecallAndDroppedByCompaction) {
  const std::string path = tempPath("stale");
  (void)std::remove(path.c_str());
  ExperienceStore store{path, {}};
  const std::vector<std::string> filed =
      store.absorb({makeRecord("IOR_64K", 0.5), makeRecord("IOR_16M", 0.5)});
  const std::string& weak = filed[0];
  const std::string& strong = filed[1];

  // Two strikes kill a once-confirmed record...
  // ...but confirmations buy extra strikes: 3 confirmations tolerate 4.
  (void)store.absorb({judgingRun("run-1", kRegressed, {weak, strong}),
                      judgingRun("run-2", kRegressed, {weak, strong}),
                      judgingRun("run-3", kRegressed, {strong}),
                      judgingRun("run-4", kConfirmed, {strong}),
                      judgingRun("run-5", kConfirmed, {strong})});

  const auto matches =
      store.recall(fingerprintOf(contextWithReadShare(0.5)), 10, 0.999);
  ASSERT_EQ(matches.size(), 1U);
  EXPECT_EQ(matches[0].record.id, strong);

  // The absorb compacted: the stale record is gone from memory and disk.
  EXPECT_EQ(store.size(), 6U);
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 6U);
  for (const ExperienceRecord& rec : reloaded.records()) {
    EXPECT_NE(rec.id, weak);
    if (rec.id == strong) {
      // Compaction folded the verdicts into the record line.
      EXPECT_EQ(rec.confirmations, 3);
      EXPECT_EQ(rec.regressions, 3);
    }
  }
}

TEST(ExperienceStore, AbsorbLeavesVerdictsOnReFiledRecordsAndStoresNone) {
  const std::string path = tempPath("absorb_verdicts");
  (void)std::remove(path.c_str());
  ExperienceStore store{path, {}};
  ExperienceRecord recalled = makeRecord("IOR_64K", 0.5, 1.2);
  recalled.id = "cell-a";
  (void)store.absorb({recalled});

  // One batch re-files the recalled record (a re-run of its cell) and
  // files a run that confirmed it twice: the run's cell was re-run too, so
  // only its last filing counts.
  ExperienceRecord reFiled = recalled;
  reFiled.bestSeconds = 0.8;
  const std::vector<std::string> ids =
      store.absorb({reFiled, judgingRun("cell-b", kConfirmed, {"cell-a"}),
                    judgingRun("cell-b", kConfirmed, {"cell-a"}), makeRecord("x", 0.3)});
  EXPECT_EQ(ids, (std::vector<std::string>{"cell-a", "cell-b", "cell-b", "exp-1"}));

  ASSERT_EQ(store.size(), 3U);
  for (const ExperienceRecord& rec : store.records()) {
    EXPECT_EQ(rec.recallVerdict, core::WarmStartVerdict::None) << rec.id;
    EXPECT_TRUE(rec.recalledIds.empty()) << rec.id;
    if (rec.id == "cell-a") {
      EXPECT_EQ(rec.bestSeconds, 0.8);    // the re-filed version...
      EXPECT_EQ(rec.confirmations, 2);    // ...carries the verdict, once
    }
  }
  const std::string bytes = util::readFile(path);
  EXPECT_EQ(bytes.find("\"recall\""), std::string::npos);
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 3);
}

TEST(ExperienceStore, CompactionCrashBeforeRenameLeavesOldGenerationReadable) {
  const std::string path = tempPath("crash");
  ExperienceRecord a = makeRecord("IOR_64K", 0.5);
  a.id = "exp-1";
  ExperienceRecord b = makeRecord("IOR_16M", 0.6);
  b.id = "exp-2";
  ExperienceRecord doomed = makeRecord("IO500", 0.7);
  doomed.id = "exp-3";
  doomed.regressions = 2;  // stale: the next compaction drops it
  const std::string kept = a.toJson().dump() + "\n" + b.toJson().dump() + "\n";
  util::writeFile(path, kept + doomed.toJson().dump() + "\n");
  // A compaction killed before its rename leaves the new generation in
  // `<store>.tmp` next to the old one.
  util::writeFile(path + ".tmp", kept);
  {
    // The old generation is fully readable; the orphaned tmp file is
    // ignored.
    ExperienceStore reloaded{path, {}};
    EXPECT_EQ(reloaded.size(), 3U);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
    // The next absorb's compaction completes the generation swap.
    (void)reloaded.absorb({});
  }
  EXPECT_FALSE(util::fileExists(path + ".tmp"));
  EXPECT_EQ(util::readFile(path), kept);  // the stale record is gone
  ExperienceStore after{path, {}};
  EXPECT_EQ(after.size(), 2U);
  EXPECT_EQ(after.corruptLinesSkipped(), 0U);
}

TEST(ExperienceStore, MemoryOnlyStoreNeverTouchesDisk) {
  ExperienceStore store{"", {}};
  const std::string id = store.absorb({makeRecord("IOR_64K", 0.5)}).front();
  (void)store.absorb({judgingRun("run-1", kConfirmed, {id})});
  ASSERT_EQ(store.size(), 2U);
  EXPECT_EQ(store.records()[0].id, id);
  EXPECT_EQ(store.records()[0].confirmations, 2);
}

TEST(ExperienceRecord, JsonRoundTrip) {
  ExperienceRecord rec = makeRecord("IO500", 0.4, 0.9);
  rec.id = "exp-42";
  rec.faults = "degraded-ost";
  rec.confirmations = 2;
  rec.regressions = 1;
  const ExperienceRecord back =
      ExperienceRecord::fromJson(util::Json::parse(rec.toJson().dump()));
  EXPECT_EQ(back.id, "exp-42");
  EXPECT_EQ(back.workload, "IO500");
  EXPECT_EQ(back.faults, "degraded-ost");
  EXPECT_EQ(back.bestSeconds, 0.9);
  EXPECT_EQ(back.confirmations, 2);
  EXPECT_EQ(back.regressions, 1);
  EXPECT_NEAR(similarity(back.fingerprint, rec.fingerprint), 1.0, 1e-6);
  const std::optional<std::int64_t> stripes =
      back.bestConfig.get("lov.stripe_count");
  ASSERT_TRUE(stripes.has_value());
  EXPECT_EQ(*stripes, 4);
  // No verdict, no `recall` object.
  EXPECT_FALSE(rec.toJson().contains("recall"));
  EXPECT_EQ(back.recallVerdict, core::WarmStartVerdict::None);

  // A verdict rides as {"verdict", "sources"} and survives the round trip.
  rec.recallVerdict = kRegressed;
  rec.recalledIds = {"exp-1", "cell|b"};
  const util::Json withVerdict = rec.toJson();
  ASSERT_TRUE(withVerdict.contains("recall"));
  EXPECT_EQ(withVerdict.at("recall").at("verdict").asString(), "regressed");
  const ExperienceRecord judged = ExperienceRecord::fromJson(withVerdict);
  EXPECT_EQ(judged.recallVerdict, kRegressed);
  EXPECT_EQ(judged.recalledIds, rec.recalledIds);
  rec.recallVerdict = kConfirmed;
  EXPECT_EQ(ExperienceRecord::fromJson(util::Json::parse(rec.toJson().dump())).recallVerdict,
            kConfirmed);

  // An unknown verdict makes the line corrupt.
  util::Json unknown = util::Json::parse(withVerdict.dump());
  util::Json recall = unknown.at("recall");
  recall.set("verdict", "neutral");
  unknown.set("recall", recall);
  EXPECT_THROW((void)ExperienceRecord::fromJson(unknown), util::JsonError);
}

}  // namespace
}  // namespace stellar::exp
