// FleetStore: concurrent-writer shard appends, the immutable recall
// snapshot, commit-time absorption (including shards that appear behind the
// service's back), and memory-only mode.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/experience_store.hpp"
#include "service/fleet_store.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

namespace stellar::service {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / ("fleet_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

exp::ExperienceRecord makeRecord(const std::string& id,
                                 const std::string& workload,
                                 double readShare) {
  rules::WorkloadContext ctx;
  ctx.metaOpShare = 0.1;
  ctx.readShare = readShare;
  ctx.sequentialShare = 0.8;
  ctx.sharedFileShare = 0.5;
  ctx.smallFileShare = 0.2;
  ctx.dominantAccessSize = 1 << 16;
  ctx.fileCount = 100;
  ctx.totalBytes = 1 << 30;

  exp::ExperienceRecord rec;
  rec.id = id;
  rec.workload = workload;
  rec.fingerprint = exp::fingerprintOf(ctx);
  EXPECT_TRUE(rec.bestConfig.set("lov.stripe_count", 4));
  rec.defaultSeconds = 2.0;
  rec.bestSeconds = 1.0;
  rec.attempts = 3;
  rec.endReason = "low expected gain";
  rec.model = "claude-3.7-sonnet";
  rec.seed = 7;
  return rec;
}

TEST(FleetStore, ShardAppendsAreInvisibleUntilCommit) {
  const fs::path dir = freshDir("shards");
  const std::string base = (dir / "store.jsonl").string();
  FleetStore fleet{base};

  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
  fleet.appendRecord("bob", makeRecord("cell-b", "IOR_16M", 0.6));

  // Durable immediately in the per-tenant shard journals...
  EXPECT_TRUE(util::fileExists(tenantShardPath(base, "alice")));
  EXPECT_TRUE(util::fileExists(tenantShardPath(base, "bob")));
  // ...but not yet visible to the base generation or the recall snapshot.
  EXPECT_EQ(fleet.baseSize(), 0U);
  EXPECT_EQ(fleet.snapshot()->size(), 0U);

  EXPECT_EQ(fleet.commit(), 2U);
  EXPECT_EQ(fleet.baseSize(), 2U);
  EXPECT_EQ(fleet.snapshot()->size(), 2U);
  // Absorbed shards are consumed, not re-absorbed on the next commit.
  EXPECT_FALSE(util::fileExists(tenantShardPath(base, "alice")));
  EXPECT_EQ(fleet.commit(), 0U);
}

TEST(FleetStore, OldSnapshotsStayImmutableAcrossCommits) {
  const fs::path dir = freshDir("immutable");
  FleetStore fleet{(dir / "store.jsonl").string()};
  const std::shared_ptr<const exp::ExperienceStore> pinned = fleet.snapshot();
  ASSERT_EQ(pinned->size(), 0U);

  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
  (void)fleet.commit();

  // A run that pinned the old generation keeps reading it unchanged while
  // new runs see the new one — the lock-free swap never mutates in place.
  EXPECT_EQ(pinned->size(), 0U);
  EXPECT_EQ(fleet.snapshot()->size(), 1U);
  EXPECT_NE(pinned.get(), fleet.snapshot().get());
}

TEST(FleetStore, CommitAbsorbsShardsThatAppearedMidScan) {
  const fs::path dir = freshDir("midscan");
  const std::string base = (dir / "store.jsonl").string();
  FleetStore fleet{base};
  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));

  // A shard journal the FleetStore never heard of (e.g. written by a
  // stellar_cli --tenant run sharing the layout, finishing between "decide
  // to commit" and "scan the directory"): the commit re-lists the directory
  // under the base-store lock, so the shard is absorbed, not skipped.
  exp::ExperienceRecord rec = makeRecord("cell-g", "IO500", 0.4);
  rec.tenant = "ghost";
  appendShardLine(tenantShardPath(base, "ghost"), rec);

  EXPECT_EQ(fleet.commit(), 2U);
  EXPECT_EQ(fleet.baseSize(), 2U);

  bool sawGhost = false;
  for (const exp::ExperienceRecord& record : fleet.snapshot()->records()) {
    sawGhost = sawGhost || record.tenant == "ghost";
  }
  EXPECT_TRUE(sawGhost);
}

TEST(FleetStore, CommitDedupsShardLinesAndDeletesShardFiles) {
  const fs::path dir = freshDir("dedup");
  const std::string base = (dir / "store.jsonl").string();
  exp::ExperienceRecord a = makeRecord("cell-a", "IOR_64K", 0.5);
  a.bestSeconds = 1.2;
  exp::ExperienceRecord aNewer = a;
  aNewer.bestSeconds = 0.8;
  const exp::ExperienceRecord b = makeRecord("cell-b", "IOR_16M", 0.6);
  util::writeFile(tenantShardPath(base, "alice"),
                  a.toJson().dump() + "\n" + "garbage line\n" + aNewer.toJson().dump() + "\n");
  util::writeFile(tenantShardPath(base, "bob"), b.toJson().dump() + "\n");

  FleetStore fleet{base};
  EXPECT_EQ(fleet.commit(), 3U);  // the garbage line is logged and skipped
  EXPECT_EQ(fleet.baseSize(), 2U);
  EXPECT_FALSE(util::fileExists(tenantShardPath(base, "alice")));
  EXPECT_FALSE(util::fileExists(tenantShardPath(base, "bob")));
  for (const exp::ExperienceRecord& rec : fleet.snapshot()->records()) {
    if (rec.id == "cell-a") {
      EXPECT_EQ(rec.bestSeconds, 0.8);  // the last shard line wins
    }
  }
  const exp::ExperienceStore reloaded{base};
  EXPECT_EQ(reloaded.size(), 2U);
  EXPECT_EQ(reloaded.corruptLinesSkipped(), 0U);
}

TEST(FleetStore, TornShardTailDoesNotSwallowTheNextRecord) {
  const fs::path dir = freshDir("torn");
  const std::string base = (dir / "store.jsonl").string();
  const std::string shard = tenantShardPath(base, "alice");
  FleetStore fleet{base};
  fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
  // A run killed mid-filing leaves half of its shard line...
  const std::string torn = makeRecord("cell-b", "IOR_16M", 0.6).toJson().dump();
  util::writeFile(shard, util::readFile(shard) + torn.substr(0, torn.size() / 2));
  // ...and the next run's filing must still land whole.
  fleet.appendRecord("alice", makeRecord("cell-c", "IO500", 0.4));

  EXPECT_EQ(fleet.commit(), 2U);
  std::set<std::string> ids;
  for (const exp::ExperienceRecord& record : fleet.snapshot()->records()) {
    ids.insert(record.id);
  }
  EXPECT_EQ(ids, (std::set<std::string>{"cell-a", "cell-c"}));
}

TEST(FleetStore, ReFiledCellCreditsWhatItRecalledOnce) {
  const fs::path dir = freshDir("refiled");
  const std::string base = (dir / "store.jsonl").string();
  FleetStore fleet{base};
  fleet.appendRecord("alice", makeRecord("cell-r", "IOR_64K", 0.5));
  ASSERT_EQ(fleet.commit(), 1U);

  // One cell filed twice (a run killed after filing, then re-run), each
  // filing confirming the committed record it recalled.
  exp::ExperienceRecord run = makeRecord("cell-x", "IOR_64K", 0.5);
  run.recallVerdict = core::WarmStartVerdict::Confirmed;
  run.recalledIds = {"cell-r"};
  fleet.appendRecord("bob", run);
  fleet.appendRecord("bob", run);
  EXPECT_EQ(fleet.commit(), 2U);

  ASSERT_EQ(fleet.baseSize(), 2U);
  for (const exp::ExperienceRecord& rec : fleet.snapshot()->records()) {
    EXPECT_EQ(rec.confirmations, rec.id == "cell-r" ? 2 : 1) << rec.id;
  }
  EXPECT_EQ(util::readFile(base).find("\"recall\""), std::string::npos);
}

TEST(FleetStore, MemoryOnlyModeCommitsTenantSortedThenIdSorted) {
  FleetStore fleet{""};
  fleet.appendRecord("zed", makeRecord("cell-z2", "IOR_64K", 0.5));
  fleet.appendRecord("ann", makeRecord("cell-a", "IOR_16M", 0.6));
  fleet.appendRecord("zed", makeRecord("cell-z1", "IO500", 0.4));
  EXPECT_EQ(fleet.snapshot()->size(), 0U);

  EXPECT_EQ(fleet.commit(), 3U);
  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].id, "cell-a");   // ann first (tenant-sorted)
  EXPECT_EQ(records[1].id, "cell-z1");  // then zed's, id-sorted
  EXPECT_EQ(records[2].id, "cell-z2");
}

TEST(FleetStore, RecallExcludesLeaveListedIdsOutOfEverySnapshot) {
  const fs::path dir = freshDir("excludes");
  const std::string base = (dir / "store.jsonl").string();
  {
    FleetStore writer{base};
    for (const char* id : {"cell-a", "cell-b", "cell-c"}) {
      writer.appendRecord("alice", makeRecord(id, "IOR_64K", 0.5));
    }
    (void)writer.commit();
  }
  FleetStore fleet{base, {}, {"cell-b", "cell-x"}};
  const auto snapshotIds = [&fleet] {
    std::set<std::string> ids;
    for (const exp::ExperienceRecord& record : fleet.snapshot()->records()) {
      ids.insert(record.id);
    }
    return ids;
  };
  // Listed ids stay in the base store but never reach a recall snapshot,
  // neither the one published at open nor one published by a commit.
  EXPECT_EQ(snapshotIds(), (std::set<std::string>{"cell-a", "cell-c"}));
  fleet.appendRecord("bob", makeRecord("cell-x", "IOR_16M", 0.6));
  fleet.appendRecord("bob", makeRecord("cell-d", "IOR_16M", 0.6));
  EXPECT_EQ(fleet.commit(), 2U);
  EXPECT_EQ(fleet.baseSize(), 5U);
  EXPECT_EQ(snapshotIds(), (std::set<std::string>{"cell-a", "cell-c", "cell-d"}));
}

TEST(FleetStore, TenantProvenanceSurvivesTheJournalRoundTrip) {
  const fs::path dir = freshDir("roundtrip");
  const std::string base = (dir / "store.jsonl").string();
  {
    FleetStore fleet{base};
    fleet.appendRecord("alice", makeRecord("cell-a", "IOR_64K", 0.5));
    (void)fleet.commit();
  }
  // Reopen from disk: the tenant field persisted through shard journal,
  // absorption, and compaction.
  FleetStore reopened{base};
  const std::vector<exp::ExperienceRecord> records =
      reopened.snapshot()->records();
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].tenant, "alice");
  EXPECT_EQ(records[0].id, "cell-a");
}

TEST(FleetStore, RepeatedCellCommitsDedupLastWins) {
  FleetStore fleet{""};
  exp::ExperienceRecord first = makeRecord("cell-a", "IOR_64K", 0.5);
  first.bestSeconds = 1.5;
  fleet.appendRecord("alice", first);
  (void)fleet.commit();

  // A re-run of the same cell (same id = cell key) replaces the old record
  // instead of growing the store without bound.
  exp::ExperienceRecord rerun = makeRecord("cell-a", "IOR_64K", 0.5);
  rerun.bestSeconds = 0.9;
  fleet.appendRecord("bob", rerun);
  (void)fleet.commit();

  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].bestSeconds, 0.9);
  EXPECT_EQ(records[0].tenant, "bob");
}

TEST(FleetStore, ConcurrentWritersLoseNoRecordsUnderIdleCommits) {
  // Property test for the journaling path (ISSUE 10, satellite 2): N writer
  // threads append disjoint record ids for their own tenants while another
  // thread runs idle-cycle commits the whole time. Afterwards one final
  // commit must make every record visible exactly once, in the canonical
  // tenant-sorted-then-id-sorted order. Runs under the targeted TSan job,
  // which would flag any unsynchronized access even if the counts match.
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 32;

  FleetStore fleet{""};  // memory mode: pending map + snapshot swap only
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};

  std::thread committer{[&fleet, &stop, &committed] {
    while (!stop.load(std::memory_order_acquire)) {
      committed.fetch_add(fleet.commit(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fleet, w] {
      const std::string tenant = "tenant-" + std::to_string(w);
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        // Two-digit suffix keeps lexicographic id order == insertion order.
        const std::string id = "cell-" + std::to_string(w) +
                               (i < 10 ? "-0" : "-") + std::to_string(i);
        fleet.appendRecord(tenant, makeRecord(id, "IOR_64K", 0.5));
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  committer.join();
  committed.fetch_add(fleet.commit(), std::memory_order_relaxed);

  // No record lost by a racing idle commit, none absorbed twice.
  EXPECT_EQ(committed.load(), kWriters * kRecordsPerWriter);
  const std::vector<exp::ExperienceRecord> records =
      fleet.snapshot()->records();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(kWriters) * kRecordsPerWriter);

  std::set<std::string> ids;
  for (const exp::ExperienceRecord& rec : records) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "duplicate id " << rec.id;
  }
  // Canonical order regardless of commit interleaving: tenants ascending,
  // ids ascending within each tenant.
  for (std::size_t i = 1; i < records.size(); ++i) {
    const bool ordered =
        records[i - 1].tenant < records[i].tenant ||
        (records[i - 1].tenant == records[i].tenant &&
         records[i - 1].id < records[i].id);
    EXPECT_TRUE(ordered) << "records " << i - 1 << "/" << i << " out of order: ("
                         << records[i - 1].tenant << ", " << records[i - 1].id
                         << ") then (" << records[i].tenant << ", "
                         << records[i].id << ")";
  }
}

// ML-COMMIT: the committed snapshot and the compacted store are functions
// of the appended records alone. The same append stream is replayed under
// seeded commit-point schedules and must yield byte-identical records()
// and store bytes, whichever appends share a commit batch.

struct TenantAppend {
  std::string tenant;
  exp::ExperienceRecord record;
};

// Four tenants' cells in a seeded interleaving, plus re-runs: a tenant
// appending a cell id it appended before, whose later record must win.
std::vector<TenantAppend> appendStream(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<TenantAppend> stream;
  for (int i = 0; i < 16; ++i) {
    std::string tenant = "tenant-" + std::to_string(rng.uniformInt(0, 3));
    std::string id = "cell-" + std::to_string(i);
    if (!stream.empty() && rng.chance(0.2)) {
      const TenantAppend& earlier = stream[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(stream.size()) - 1))];
      tenant = earlier.tenant;
      id = earlier.record.id;
    }
    exp::ExperienceRecord record = makeRecord(id, "IOR_64K", 0.5);
    record.bestSeconds = 0.5 + 0.01 * i;
    stream.push_back(TenantAppend{tenant, std::move(record)});
  }
  return stream;
}

struct Committed {
  std::string order;       ///< "tenant/id" of each record, in records() order
  std::string records;     ///< records() in order, one JSON line each
  std::string storeBytes;  ///< the compacted base store (file mode)
};

// Appends `stream` into a fresh FleetStore (file mode when `base` is set),
// committing after append i whenever commitAfter[i] holds, then once more.
Committed replay(const std::vector<TenantAppend>& stream,
                 const std::vector<bool>& commitAfter, const std::string& base) {
  FleetStore fleet{base};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fleet.appendRecord(stream[i].tenant, stream[i].record);
    if (commitAfter[i]) {
      (void)fleet.commit();
    }
  }
  (void)fleet.commit();
  Committed out;
  for (const exp::ExperienceRecord& record : fleet.snapshot()->records()) {
    out.order += record.tenant + "/" + record.id + " ";
    out.records += record.toJson().dump() + "\n";
  }
  if (!base.empty()) {
    out.storeBytes = util::readFile(base);
  }
  return out;
}

void expectBatchingInvisible(const std::vector<TenantAppend>& stream,
                             const std::vector<bool>& commitAfter,
                             const std::string& label) {
  const std::vector<bool> oneBatch(stream.size(), false);
  const Committed memoryRef = replay(stream, oneBatch, "");
  const Committed memory = replay(stream, commitAfter, "");
  EXPECT_EQ(memory.order, memoryRef.order) << label << " (memory mode)";
  EXPECT_TRUE(memory.records == memoryRef.records) << label << " (memory mode records)";

  const std::string fileRef =
      (freshDir("commit_ref_" + label) / "store.jsonl").string();
  const std::string file = (freshDir("commit_" + label) / "store.jsonl").string();
  const Committed diskRef = replay(stream, oneBatch, fileRef);
  const Committed disk = replay(stream, commitAfter, file);
  EXPECT_EQ(disk.order, diskRef.order) << label << " (file mode)";
  EXPECT_TRUE(disk.records == diskRef.records) << label << " (file mode records)";
  EXPECT_TRUE(disk.storeBytes == diskRef.storeBytes)
      << label << " (file mode store bytes)";
  EXPECT_TRUE(disk.records == memoryRef.records) << label << " (file vs memory mode)";
}

TEST(FleetStore, CommitBatchingNeverChangesRecordsOrStoreBytes) {
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const std::uint64_t seed = util::mix64(0xC0117, trial);
    const std::vector<TenantAppend> stream = appendStream(seed);
    util::Rng rng{util::mix64(seed, 1)};
    std::vector<bool> commitAfter(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      commitAfter[i] = rng.chance(1.0 / 3.0);
    }
    expectBatchingInvisible(stream, commitAfter, "trial-" + std::to_string(trial));
  }
}

TEST(FleetStore, LaterTenantCommittedFirstStillLandsInCanonicalOrder) {
  // The minimal schedule that broke the order: tenant-1's record commits
  // in an idle commit before tenant-0's arrives.
  const std::vector<TenantAppend> stream{
      {"tenant-1", makeRecord("cell-1-00", "IOR_64K", 0.5)},
      {"tenant-0", makeRecord("cell-0-00", "IOR_16M", 0.6)},
  };
  expectBatchingInvisible(stream, {true, false}, "tenant-1-first");
}

TEST(FleetStore, ConcurrentJournalWritersSurviveTheDiskPath) {
  // Same race, disk mode: shard journal appends go through the filesystem
  // under the store mutex. The reopened store must see every record.
  const fs::path dir = freshDir("concurrent");
  const std::string base = (dir / "store.jsonl").string();
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 16;
  {
    FleetStore fleet{base};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&fleet, w] {
        const std::string tenant = "tenant-" + std::to_string(w);
        for (int i = 0; i < kRecordsPerWriter; ++i) {
          const std::string id = "cell-" + std::to_string(w) +
                                 (i < 10 ? "-0" : "-") + std::to_string(i);
          fleet.appendRecord(tenant, makeRecord(id, "IOR_16M", 0.6));
        }
      });
    }
    for (std::thread& t : writers) {
      t.join();
    }
    EXPECT_EQ(fleet.commit(), kWriters * kRecordsPerWriter);
  }
  FleetStore reopened{base};
  EXPECT_EQ(reopened.snapshot()->size(),
            static_cast<std::size_t>(kWriters) * kRecordsPerWriter);
}

}  // namespace
}  // namespace stellar::service
