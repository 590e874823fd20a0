#include "exp/experience_store.hpp"

#include <gtest/gtest.h>

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

TEST(ExperienceStore, PersistsAndReloads) {
  const std::string path = tempPath("persist");
  (void)std::remove(path.c_str());
  {
    ExperienceStore store{path, {}};
    EXPECT_EQ(store.size(), 0U);
    const std::string id = store.append(makeRecord("IOR_64K", 0.5));
    EXPECT_EQ(id, "exp-1");
    EXPECT_EQ(store.append(makeRecord("IOR_16M", 0.6)), "exp-2");
  }
  ExperienceStore reloaded{path, {}};
  EXPECT_EQ(reloaded.size(), 2U);
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
  // Id assignment resumes past the reloaded records.
  EXPECT_EQ(reloaded.append(makeRecord("IO500", 0.4)), "exp-3");
}

TEST(ExperienceStore, AppendWithExistingIdReplacesLastWins) {
  const std::string path = tempPath("lastwins");
  (void)std::remove(path.c_str());
  ExperienceStore store{path, {}};
  ExperienceRecord rec = makeRecord("IOR_64K", 0.5, 1.5);
  rec.id = "cell-a";
  (void)store.append(rec);
  rec.bestSeconds = 0.9;
  (void)store.append(rec);
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.records()[0].bestSeconds, 0.9);
  // The duplicate survives reload (journal replay is also last-wins)...
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 1U);
  EXPECT_EQ(reloaded.records()[0].bestSeconds, 0.9);
}

TEST(ExperienceStore, CorruptLinesAreSkippedWithCountAndStoreStaysUsable) {
  const std::string path = tempPath("corrupt");
  (void)std::remove(path.c_str());
  {
    ExperienceStore store{path, {}};
    (void)store.append(makeRecord("IOR_64K", 0.5));
    (void)store.append(makeRecord("IOR_16M", 0.6));
  }
  // Inject damage: garbage text, a torn (truncated) JSON line, an unknown
  // line type, and a record line missing required fields.
  std::string contents = util::readFile(path);
  contents += "this is not json\n";
  contents += "{\"type\":\"record\",\"id\":\"torn\",\"workl\n";
  contents += "{\"type\":\"mystery\",\"id\":\"x\"}\n";
  contents += "{\"type\":\"record\",\"id\":\"incomplete\"}\n";
  util::writeFile(path, contents);

  ExperienceStore store{path, {}};
  EXPECT_EQ(store.size(), 2U);
  EXPECT_EQ(store.corruptLinesSkipped(), 4U);
  // Still usable: appends and recalls keep working.
  (void)store.append(makeRecord("IO500", 0.4));
  EXPECT_EQ(store.size(), 3U);
  const auto matches =
      store.recall(fingerprintOf(contextWithReadShare(0.5)), 10, 0.9);
  EXPECT_FALSE(matches.empty());
}

TEST(ExperienceStore, JournalReplayRestoresOutcomeLedger) {
  const std::string path = tempPath("journal");
  (void)std::remove(path.c_str());
  {
    ExperienceStore store{path, {}};
    const std::string id = store.append(makeRecord("IOR_64K", 0.5));
    store.confirm(id);
    store.confirm(id);
    store.penalize(id);
    // Journal lines for unknown ids are ignored on replay.
    store.penalize("no-such-id");
  }
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 1U);
  EXPECT_EQ(reloaded.records()[0].confirmations, 3);
  EXPECT_EQ(reloaded.records()[0].regressions, 1);
}

TEST(ExperienceStore, RecallRanksBySimilarityWithDeterministicTieBreak) {
  ExperienceStore store{"", {}};  // memory-only
  ExperienceRecord close = makeRecord("A", 0.5);
  close.id = "b-close";
  ExperienceRecord tie = makeRecord("B", 0.5);  // identical fingerprint
  tie.id = "a-close";
  ExperienceRecord far = makeRecord("C", 0.9);
  far.id = "c-far";
  (void)store.append(close);
  (void)store.append(tie);
  (void)store.append(far);

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
  StoreOptions options;
  options.evictionRegressions = 2;
  ExperienceStore store{path, options};
  const std::string weak = store.append(makeRecord("IOR_64K", 0.5));
  const std::string strong = store.append(makeRecord("IOR_16M", 0.5));

  // Two strikes kill a once-confirmed record...
  store.penalize(weak);
  store.penalize(weak);
  // ...but confirmations buy extra strikes: 3 confirmations tolerate 4.
  store.confirm(strong);
  store.confirm(strong);
  store.penalize(strong);
  store.penalize(strong);
  store.penalize(strong);

  const auto matches =
      store.recall(fingerprintOf(contextWithReadShare(0.5)), 10, 0.0);
  ASSERT_EQ(matches.size(), 1U);
  EXPECT_EQ(matches[0].record.id, strong);

  store.compact();
  EXPECT_EQ(store.size(), 1U);
  ExperienceStore reloaded{path, {}};
  ASSERT_EQ(reloaded.size(), 1U);
  EXPECT_EQ(reloaded.records()[0].id, strong);
  // Compaction folded the journal into the record line.
  EXPECT_EQ(reloaded.records()[0].confirmations, 3);
  EXPECT_EQ(reloaded.records()[0].regressions, 3);
}

TEST(ExperienceStore, CompactionCrashBeforeRenameLeavesOldGenerationReadable) {
  const std::string path = tempPath("crash");
  (void)std::remove(path.c_str());
  (void)std::remove((path + ".compact.tmp").c_str());
  {
    ExperienceStore store{path, {}};
    (void)store.append(makeRecord("IOR_64K", 0.5));
    (void)store.append(makeRecord("IOR_16M", 0.6));
    const std::string doomed = store.append(makeRecord("IO500", 0.7));
    store.penalize(doomed);
    store.penalize(doomed);

    ExperienceStore::CompactionHooks hooks;
    hooks.crashBeforeRename = true;
    store.compact(hooks);  // simulated death: tmp written, store untouched
  }
  // The old generation (records + journal) is fully readable; the orphaned
  // tmp file is ignored.
  EXPECT_TRUE(util::fileExists(path + ".compact.tmp"));
  {
    ExperienceStore reloaded{path, {}};
    EXPECT_EQ(reloaded.size(), 3U);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
    // A later compaction completes the generation swap.
    reloaded.compact();
  }
  ExperienceStore after{path, {}};
  EXPECT_EQ(after.size(), 2U);  // the penalized record is gone
  EXPECT_EQ(after.corruptLinesSkipped(), 0U);
}

TEST(ExperienceStore, AbsorbShardsDedupsAndDeletesShardFiles) {
  const std::string path = tempPath("absorb");
  const std::string shard0 = path + ".shard-0";
  const std::string shard1 = path + ".shard-1";
  (void)std::remove(path.c_str());

  ExperienceRecord a = makeRecord("IOR_64K", 0.5, 1.2);
  a.id = "cell-a";
  ExperienceRecord aNewer = a;
  aNewer.bestSeconds = 0.8;
  ExperienceRecord b = makeRecord("IOR_16M", 0.6);
  b.id = "cell-b";
  util::writeFile(shard0, a.toJson().dump() + "\n" + "garbage line\n" +
                              aNewer.toJson().dump() + "\n");
  util::writeFile(shard1, b.toJson().dump() + "\n");

  ExperienceStore store{path, {}};
  EXPECT_EQ(store.absorbShardDir(::testing::TempDir(), "exp_store_absorb.jsonl.shard-"), 3U);
  EXPECT_EQ(store.size(), 2U);
  EXPECT_FALSE(util::fileExists(shard0));
  EXPECT_FALSE(util::fileExists(shard1));
  for (const ExperienceRecord& rec : store.records()) {
    if (rec.id == "cell-a") {
      EXPECT_EQ(rec.bestSeconds, 0.8);  // last shard line wins
    }
  }
  ExperienceStore reloaded{path, {}};
  EXPECT_EQ(reloaded.size(), 2U);
}

TEST(ExperienceStore, MemoryOnlyStoreNeverTouchesDisk) {
  ExperienceStore store{"", {}};
  const std::string id = store.append(makeRecord("IOR_64K", 0.5));
  store.confirm(id);
  store.compact();
  EXPECT_EQ(store.size(), 1U);
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
}

}  // namespace
}  // namespace stellar::exp
