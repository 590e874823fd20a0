// Client-runtime semantics at the op level: write-back/fsync, unlink
// discard, page-cache/lock coupling, statahead pipelining, barriers.
#include <gtest/gtest.h>

#include "pfs/simulator.hpp"
#include "util/units.hpp"

namespace stellar::pfs {
namespace {

/// One-rank-per-node cluster keeps interactions minimal.
ClusterSpec soloCluster() {
  ClusterSpec cluster;
  cluster.ranksPerNode = 1;
  return cluster;
}

RunResult runJob(const JobSpec& job, const PfsConfig& cfg = PfsConfig{},
                 ClusterSpec cluster = defaultCluster()) {
  PfsSimulator sim{{.cluster = std::move(cluster)}};
  return sim.run(job, cfg, 21);
}

TEST(ClientSemantics, UnsyncedWritesDoNotCountTowardWallTime) {
  // Two identical writers; one fsyncs, one exits dirty. The fsyncing job
  // must take visibly longer (the flush is on its critical path).
  const auto makeJob = [](bool withFsync) {
    JobSpec job;
    job.name = withFsync ? "sync" : "nosync";
    job.ranks.resize(1);
    const auto f = job.addFile("/f");
    auto& prog = job.ranks[0];
    prog.push_back(IoOp::create(f));
    for (std::uint64_t off = 0; off < 64 * util::kMiB; off += util::kMiB) {
      prog.push_back(IoOp::write(f, off, util::kMiB));
    }
    if (withFsync) {
      prog.push_back(IoOp::fsync(f));
    }
    prog.push_back(IoOp::close(f));
    return job;
  };
  PfsConfig roomy;
  roomy.osc_max_dirty_mb = 1024;  // everything fits in cache
  const double dirtyExit = runJob(makeJob(false), roomy, soloCluster()).rawWallSeconds;
  const double syncedExit = runJob(makeJob(true), roomy, soloCluster()).rawWallSeconds;
  EXPECT_GT(syncedExit, dirtyExit * 2.0);
}

TEST(ClientSemantics, FsyncCountsAndBlocks) {
  JobSpec job;
  job.name = "fsync";
  job.ranks.resize(1);
  const auto f = job.addFile("/f");
  job.ranks[0] = {IoOp::create(f), IoOp::write(f, 0, 8 * util::kMiB), IoOp::fsync(f),
                  IoOp::close(f)};
  const RunResult result = runJob(job);
  EXPECT_EQ(result.files[0].fsyncs, 1u);
  EXPECT_GT(result.ranks[0].writeTime, 0.0);  // the fsync wait is write time
}

TEST(ClientSemantics, UnlinkDiscardsPendingDirtyData) {
  // create -> write small -> close -> unlink: with no fsync the data never
  // needs to reach the OSTs; the discarding job issues fewer data RPCs.
  const auto makeJob = [](bool unlink) {
    JobSpec job;
    job.name = "u";
    job.ranks.resize(1);
    auto& prog = job.ranks[0];
    for (int i = 0; i < 50; ++i) {
      const auto f = job.addFile("/d/f" + std::to_string(i));
      prog.push_back(IoOp::create(f));
      prog.push_back(IoOp::write(f, 0, 8 * util::kKiB));
      prog.push_back(IoOp::close(f));
      if (unlink) {
        prog.push_back(IoOp::unlink(f));
      }
    }
    return job;
  };
  const RunResult kept = runJob(makeJob(false));
  const RunResult discarded = runJob(makeJob(true));
  EXPECT_LT(discarded.counters.dataRpcs, kept.counters.dataRpcs);
}

TEST(ClientSemantics, PageCacheHitsRequireTheLockToSurvive) {
  // Write then read back on the same node. With a big lock LRU the read is
  // a page-cache hit; flooding the LRU with other files in between evicts
  // the lock and forces the read to the OSTs.
  const auto makeJob = [](int floodFiles) {
    JobSpec job;
    job.name = "pc";
    job.ranks.resize(1);
    const auto target = job.addFile("/target");
    auto& prog = job.ranks[0];
    prog.push_back(IoOp::create(target));
    prog.push_back(IoOp::write(target, 0, 256 * util::kKiB));
    prog.push_back(IoOp::close(target));
    for (int i = 0; i < floodFiles; ++i) {
      const auto f = job.addFile("/flood/f" + std::to_string(i));
      prog.push_back(IoOp::create(f));
      prog.push_back(IoOp::close(f));
    }
    prog.push_back(IoOp::open(target));
    prog.push_back(IoOp::read(target, 0, 256 * util::kKiB));
    prog.push_back(IoOp::close(target));
    return job;
  };
  PfsConfig smallLru;
  smallLru.ldlm_lru_size = 64;
  const RunResult hit = runJob(makeJob(0), smallLru);
  const RunResult evicted = runJob(makeJob(200), smallLru);
  EXPECT_EQ(hit.counters.pageCacheHitBytes, 256 * util::kKiB);
  EXPECT_EQ(evicted.counters.pageCacheHitBytes, 0u);
}

TEST(ClientSemantics, SharedFilesNeverHitThePageCache) {
  // Writer on node 0, reader on node 1 (ranksPerNode=1): reads must go to
  // the OSTs even though a lock may be cached.
  JobSpec job;
  job.name = "cross";
  job.ranks.resize(2);
  const auto f = job.addFile("/x");
  job.ranks[0] = {IoOp::create(f), IoOp::write(f, 0, util::kMiB), IoOp::fsync(f),
                  IoOp::close(f), IoOp::barrier()};
  job.ranks[1] = {IoOp::barrier(), IoOp::open(f), IoOp::read(f, 0, util::kMiB),
                  IoOp::close(f)};
  const RunResult result = runJob(job, PfsConfig{}, soloCluster());
  EXPECT_EQ(result.counters.pageCacheHitBytes, 0u);
  EXPECT_GT(result.files[0].bytesRead, 0u);
}

TEST(ClientSemantics, StataheadServesPipelinedStats) {
  JobSpec job;
  job.name = "scan";
  job.ranks.resize(1);
  const auto dir = job.addDir("/scan");
  auto& prog = job.ranks[0];
  prog.push_back(IoOp::mkdir(dir));
  std::vector<FileId> files;
  for (int i = 0; i < 100; ++i) {
    files.push_back(job.addFile("/scan/f" + std::to_string(i), dir));
    prog.push_back(IoOp::create(files.back()));
    prog.push_back(IoOp::close(files.back()));
  }
  prog.push_back(IoOp::barrier());
  for (const FileId f : files) {
    prog.push_back(IoOp::stat(f));
  }

  PfsConfig saOn;
  saOn.ldlm_lru_size = 8;  // force stat misses
  saOn.llite_statahead_max = 64;
  saOn.mdc_max_rpcs_in_flight = 64;
  saOn.mdc_max_mod_rpcs_in_flight = 63;
  const RunResult result = runJob(job, saOn, soloCluster());
  EXPECT_GT(result.counters.stataheadServed, 50u);

  PfsConfig saOff = saOn;
  saOff.llite_statahead_max = 0;
  const RunResult off = runJob(job, saOff, soloCluster());
  EXPECT_EQ(off.counters.stataheadServed, 0u);
  EXPECT_GT(off.rawWallSeconds, result.rawWallSeconds);
}

TEST(ClientSemantics, LockServedStatsDropTheirStataheadEntries) {
  // A statahead scan records an entry for every stat it looks ahead to.
  // When a cached lock serves the stat instead, its entry goes too. Here
  // the scan starts on a file whose lock is not cached and marks the ten
  // files behind it ready from the locks their creates cached; those
  // locks then serve all ten stats.
  JobSpec job;
  job.name = "cached-scan";
  job.ranks.resize(1);
  auto& prog = job.ranks[0];
  const FileId cold = job.addFile("/cold");
  std::vector<FileId> warm;
  for (int i = 0; i < 10; ++i) {
    warm.push_back(job.addFile("/warm" + std::to_string(i)));
    prog.push_back(IoOp::create(warm.back()));
    prog.push_back(IoOp::close(warm.back()));
  }
  prog.push_back(IoOp::stat(cold));
  for (const FileId f : warm) {
    prog.push_back(IoOp::stat(f));
  }

  PfsConfig cfg;
  cfg.llite_statahead_max = 32;
  const RunResult result = runJob(job, cfg, soloCluster());
  EXPECT_EQ(result.counters.stataheadServed, 1u);  // the cold file's stat
  EXPECT_EQ(result.audit.stataheadPending, 0u);
}

TEST(ClientSemantics, UnlinkWakesARankWaitingOnAnInFlightPrefetch) {
  // Rank 0 reads a file it created and nobody wrote, so no page cache
  // serves the read: it waits on the readahead chunk it just put in
  // flight. Rank 1, on the same node, unlinks the file in that instant.
  // Dropping the file orphans rank 0's wait, which must still complete
  // (the data is gone, the wait is over); otherwise rank 0 never resumes
  // and the run deadlocks.
  JobSpec job;
  job.name = "orphaned-prefetch";
  job.ranks.resize(2);
  const auto f = job.addFile("/f");
  job.ranks[0] = {IoOp::create(f), IoOp::barrier(), IoOp::read(f, 0, util::kMiB),
                  IoOp::close(f)};
  job.ranks[1] = {IoOp::barrier(), IoOp::unlink(f)};
  ASSERT_GE(defaultCluster().ranksPerNode, 2u);  // both ranks on node 0
  const RunResult result = runJob(job);
  EXPECT_EQ(result.outcome, RunOutcome::Ok);
  EXPECT_EQ(result.files[0].unlinks, 1u);
  EXPECT_GT(result.ranks[0].readTime, 0.0);
  const RunAudit& a = result.audit;
  // The in-flight chunks went with the file, unread.
  EXPECT_GT(a.readaPrefetchedBytes, 0u);
  EXPECT_EQ(a.readaConsumedBytes, 0u);
  EXPECT_EQ(a.readaDiscardedBytes, a.readaPrefetchedBytes);
  // INV-READA: every prefetched byte is consumed, discarded or resident.
  EXPECT_EQ(a.readaPrefetchedBytes,
            a.readaConsumedBytes + a.readaDiscardedBytes + a.readaResidentBytes);
}

TEST(ClientSemantics, BarriersSynchronizeRanks) {
  JobSpec job;
  job.name = "barrier";
  job.ranks.resize(2);
  const auto f = job.addFile("/f");
  // Rank 0 computes 1s then arrives; rank 1 arrives immediately. Both
  // finish after the barrier, so both finish at >= 1s.
  job.ranks[0] = {IoOp::create(f), IoOp::compute(1.0), IoOp::barrier()};
  job.ranks[1] = {IoOp::compute(0.001), IoOp::barrier()};
  const RunResult result = runJob(job, PfsConfig{}, soloCluster());
  EXPECT_GE(result.ranks[1].finishTime, 1.0);
}

TEST(ClientSemantics, ExtentConflictsOnlyOnCrossNodeSharedWrites) {
  const auto makeJob = [](std::uint32_t ranks) {
    JobSpec job;
    job.name = "conflict";
    job.ranks.resize(ranks);
    const auto f = job.addFile("/shared");
    util::Rng rng{5};
    for (std::uint32_t r = 0; r < ranks; ++r) {
      auto& prog = job.ranks[r];
      if (r == 0) {
        prog.push_back(IoOp::create(f));
      }
      prog.push_back(IoOp::barrier());
      if (r != 0) {
        prog.push_back(IoOp::open(f));
      }
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(rng.uniformInt(0, 1023))) * 64 * util::kKiB;
        prog.push_back(IoOp::write(f, offset, 64 * util::kKiB));
      }
      prog.push_back(IoOp::close(f));
    }
    return job;
  };
  // Single node (1 rank): no conflicts possible.
  const RunResult solo = runJob(makeJob(1), PfsConfig{}, soloCluster());
  EXPECT_EQ(solo.counters.extentConflicts, 0u);
  // Five nodes writing the same file: conflicts appear.
  const RunResult shared = runJob(makeJob(5), PfsConfig{}, soloCluster());
  EXPECT_GT(shared.counters.extentConflicts, 0u);
}

TEST(ClientSemantics, ChecksumsChargeCpuTimePerByte) {
  // Buffered writes with an ample dirty budget and no fsync: the wall time
  // is pure client-side CPU, so the checksum cost is fully exposed. (With
  // a flush on the critical path the checksum CPU overlaps the I/O — also
  // covered, by ResponseSurface.ChecksumsCostThroughput.)
  JobSpec job;
  job.name = "ck";
  job.ranks.resize(1);
  const auto f = job.addFile("/f");
  job.ranks[0] = {IoOp::create(f), IoOp::write(f, 0, 64 * util::kMiB),
                  IoOp::close(f)};
  PfsConfig off;
  off.osc_max_dirty_mb = 2048;
  PfsConfig on = off;
  on.osc_checksums = true;
  const double tOff = runJob(job, off).rawWallSeconds;
  const double tOn = runJob(job, on).rawWallSeconds;
  EXPECT_GT(tOn, tOff * 1.5);
}

}  // namespace
}  // namespace stellar::pfs
