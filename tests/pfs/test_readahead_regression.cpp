// Knob-boundary regressions for the sliding-window readahead engine
// (ISSUE 10, satellite 4): the per-file cap must be rejected the moment it
// exceeds half the client-wide budget, whole-file mode must cut over at
// exactly llite_max_read_ahead_whole_mb, and the PR 4 dirty-budget
// counterexamples must stay green now that write-back runs through the
// WritebackBank instead of the old per-lane pending vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pfs/params.hpp"
#include "pfs/simulator.hpp"

namespace stellar::pfs {
namespace {

constexpr std::uint64_t kChunk = 256 * 1024;
constexpr std::uint64_t kRpc = 256 * 4096;  // osc_max_pages_per_rpc pages

// ------------------------------------------------- per-file cap boundary

BoundsContext defaultContext() {
  const PfsSimulator sim;
  return sim.boundsContext();
}

TEST(ReadaheadRegression, PerFileCapAtHalfBudgetIsAccepted) {
  PfsConfig cfg;
  cfg.llite_max_read_ahead_mb = 64;
  cfg.llite_max_read_ahead_per_file_mb = 32;  // exactly half: legal
  EXPECT_TRUE(validateConfig(cfg, defaultContext()).empty());
}

TEST(ReadaheadRegression, PerFileCapOverHalfBudgetIsRejected) {
  PfsConfig cfg;
  cfg.llite_max_read_ahead_mb = 64;
  cfg.llite_max_read_ahead_per_file_mb = 33;  // one MiB over: illegal
  const std::vector<std::string> violations =
      validateConfig(cfg, defaultContext());
  ASSERT_FALSE(violations.empty());
  bool mentionsPerFile = false;
  for (const std::string& v : violations) {
    mentionsPerFile =
        mentionsPerFile ||
        v.find("llite.max_read_ahead_per_file_mb") != std::string::npos;
  }
  EXPECT_TRUE(mentionsPerFile);
}

TEST(ReadaheadRegression, WholeFileCutoverOverPerFileCapIsRejected) {
  PfsConfig cfg;
  cfg.llite_max_read_ahead_mb = 64;
  cfg.llite_max_read_ahead_per_file_mb = 4;
  cfg.llite_max_read_ahead_whole_mb = 5;  // cutover above the window cap
  EXPECT_FALSE(validateConfig(cfg, defaultContext()).empty());
  cfg.llite_max_read_ahead_whole_mb = 4;
  EXPECT_TRUE(validateConfig(cfg, defaultContext()).empty());
}

// --------------------------------------------------- whole-file cutover

/// Writer on node 0 publishes `fileBytes`; reader on node 1 (cold cache)
/// reads just the first chunk and closes. Whole-file mode prefetches the
/// entire file on that first read; the windowed ramp fetches only the
/// RPC-aligned initial window.
RunResult runFirstChunkReader(std::uint64_t fileBytes) {
  ClusterSpec cluster = defaultCluster();
  cluster.clientNodes = 2;
  cluster.ranksPerNode = 1;
  cluster.ossNodes = 1;
  cluster.ostsPerOss = 1;

  PfsConfig cfg;
  cfg.stripe_count = 1;
  cfg.osc_max_rpcs_in_flight = 1;
  cfg.osc_max_pages_per_rpc = 256;
  cfg.osc_max_dirty_mb = 64;
  cfg.llite_max_read_ahead_mb = 64;
  cfg.llite_max_read_ahead_per_file_mb = 32;
  cfg.llite_max_read_ahead_whole_mb = 2;

  JobSpec job;
  job.name = "reada_cutover";
  job.ranks.resize(2);
  const FileId f = job.addFile("/regress/cutover");
  job.ranks[0].push_back(IoOp::create(f));
  for (std::uint64_t off = 0; off < fileBytes; off += kRpc) {
    job.ranks[0].push_back(IoOp::write(f, off, std::min(kRpc, fileBytes - off)));
  }
  job.ranks[0].push_back(IoOp::fsync(f));
  job.ranks[0].push_back(IoOp::barrier());
  job.ranks[0].push_back(IoOp::close(f));
  job.ranks[1].push_back(IoOp::barrier());
  job.ranks[1].push_back(IoOp::open(f));
  job.ranks[1].push_back(IoOp::read(f, 0, kChunk));
  job.ranks[1].push_back(IoOp::close(f));

  const PfsSimulator sim{SimulatorOptions{.cluster = cluster}};
  return sim.run(job, cfg, /*seed=*/42);
}

TEST(ReadaheadRegression, WholeFileModeFiresAtExactlyTheCutover) {
  constexpr std::uint64_t kFileBytes = 2 * 1024 * 1024;  // == whole_mb
  const RunResult result = runFirstChunkReader(kFileBytes);
  ASSERT_EQ(result.outcome, RunOutcome::Ok);
  // One whole-file shot: the entire file, no RPC rounding, no ramp.
  EXPECT_EQ(result.audit.readaPrefetchedBytes, kFileBytes);
  EXPECT_EQ(result.audit.readaWindowsOpened, 1u);
  EXPECT_EQ(result.audit.readaWindowsGrown, 0u);  // parked, never grows
  // Only the first chunk was consumed; close discards the rest.
  EXPECT_EQ(result.audit.readaConsumedBytes, kChunk);
  EXPECT_EQ(result.audit.readaDiscardedBytes, kFileBytes - kChunk);
}

TEST(ReadaheadRegression, OneChunkPastTheCutoverUsesTheWindowedRamp) {
  constexpr std::uint64_t kFileBytes = 2 * 1024 * 1024 + kChunk;
  const RunResult result = runFirstChunkReader(kFileBytes);
  ASSERT_EQ(result.outcome, RunOutcome::Ok);
  // Windowed open: readEnd (256 KiB) + initial window (256 KiB), aligned up
  // to the 1 MiB RPC edge — nowhere near the whole file.
  EXPECT_EQ(result.audit.readaPrefetchedBytes, kRpc);
  EXPECT_LT(result.audit.readaPrefetchedBytes, kFileBytes);
  EXPECT_EQ(result.audit.readaWindowsOpened, 1u);
}

// -------------------------------------- PR 4 dirty-budget counterexamples
//
// Shrunk counterexamples from tests/pfs/test_dirty_budget_regression.cpp,
// replayed here against the WritebackBank-backed flush path with readahead
// enabled.

RunResult runBudgetStarvers(std::uint32_t ranks, std::uint32_t chunksPerRank,
                            std::int64_t maxPagesPerRpc) {
  ClusterSpec cluster = defaultCluster();
  cluster.clientNodes = 1;
  cluster.ranksPerNode = 4;
  cluster.ossNodes = 1;
  cluster.ostsPerOss = 1;

  PfsConfig config;
  EXPECT_TRUE(config.set("osc.max_pages_per_rpc", maxPagesPerRpc));
  EXPECT_TRUE(config.set("osc.max_dirty_mb", 1));  // budget (1 MiB) < RPC size
  EXPECT_TRUE(config.set("llite.max_read_ahead_mb", 64));

  constexpr std::uint64_t kBudgetChunk = 1024 * 1024;
  JobSpec job;
  job.name = "reada_budget_regression";
  job.ranks.resize(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const FileId file = job.addFile("/regress/r" + std::to_string(r));
    job.ranks[r].push_back(IoOp::create(file));
    for (std::uint32_t c = 0; c < chunksPerRank; ++c) {
      job.ranks[r].push_back(
          IoOp::write(file, std::uint64_t{c} * kBudgetChunk, kBudgetChunk));
    }
    job.ranks[r].push_back(IoOp::close(file));
  }

  const PfsSimulator sim{SimulatorOptions{.cluster = cluster}};
  return sim.run(job, config, /*seed=*/0x9f2423839c74e897ULL);
}

TEST(ReadaheadRegression, ThreeRankCounterexampleDoesNotDeadlockBank) {
  RunResult result;
  ASSERT_NO_THROW(result = runBudgetStarvers(3, 1, 512));
  EXPECT_EQ(result.outcome, RunOutcome::Ok);
  EXPECT_EQ(result.counters.writeRpcBytes, 3u * 1024 * 1024);
}

TEST(ReadaheadRegression, TwoRankCounterexampleDoesNotDeadlockBank) {
  RunResult result;
  ASSERT_NO_THROW(result = runBudgetStarvers(2, 2, 3412));
  EXPECT_EQ(result.outcome, RunOutcome::Ok);
  EXPECT_EQ(result.counters.writeRpcBytes, 4u * 1024 * 1024);
}

// The write-back bank parks sub-threshold segments per (node, OST) lane,
// and unlink and fsync walk only the file's layout lanes. These cases use
// five OSTs, 64 KiB stripes and 2 MiB RPCs, so every segment below parks
// until an unlink, an fsync or the end-of-job flush moves it.

constexpr std::uint64_t kStripe = 64 * 1024;
constexpr std::uint64_t kDoomedBytes = 5 * kStripe;     // stripes 0..4
constexpr std::uint64_t kNeighbourBytes = 3 * kStripe;  // stripes 0..2

ClusterSpec fiveOstCluster() {
  ClusterSpec cluster = defaultCluster();
  cluster.clientNodes = 1;
  cluster.ranksPerNode = 1;
  cluster.ossNodes = 5;
  cluster.ostsPerOss = 1;
  return cluster;
}

PfsConfig parkingConfig(std::int64_t stripeCount) {
  PfsConfig config;
  EXPECT_TRUE(config.set("osc.max_pages_per_rpc", 512));  // 2 MiB RPCs
  EXPECT_TRUE(config.set("osc.max_dirty_mb", 64));
  EXPECT_TRUE(config.set("lov.stripe_size", static_cast<std::int64_t>(kStripe)));
  EXPECT_TRUE(config.set("lov.stripe_count", stripeCount));
  return config;
}

// A job of `fileCount` files; rank 0 runs `program` on them.
JobSpec laneJob(FileId fileCount, std::vector<IoOp> program) {
  JobSpec job;
  job.name = "writeback_lanes";
  for (FileId f = 0; f < fileCount; ++f) {
    (void)job.addFile("/lanes/f" + std::to_string(f));
  }
  job.ranks.push_back(std::move(program));
  return job;
}

// The OST holding stripe 0 of `file` (placement hashes the file id),
// learned from one fsynced single-stripe write.
std::uint32_t firstOstOf(FileId file) {
  const PfsSimulator sim{SimulatorOptions{.cluster = fiveOstCluster()}};
  const RunResult probe =
      sim.run(laneJob(file + 1, {IoOp::create(file), IoOp::write(file, 0, kStripe),
                                 IoOp::fsync(file)}),
              parkingConfig(1), /*seed=*/42);
  for (std::uint32_t ost = 0; ost < probe.audit.osts.size(); ++ost) {
    if (probe.audit.osts[ost].bytesWritten > 0) {
      return ost;
    }
  }
  ADD_FAILURE() << "probe of file " << file << " wrote nothing";
  return 0;
}

// The doomed file starts on the last OST, so a three-stripe layout wraps
// to OSTs 4, 0, 1; the neighbour starts there too and shares every lane.
struct LanePair {
  FileId doomed = 0;
  FileId neighbour = 0;
};

LanePair filesOnTheLastOst() {
  LanePair pair;
  bool haveDoomed = false;
  for (FileId f = 0; f < 64; ++f) {
    if (firstOstOf(f) != 4) {
      continue;
    }
    if (!haveDoomed) {
      pair.doomed = f;
      haveDoomed = true;
    } else {
      pair.neighbour = f;
      return pair;
    }
  }
  ADD_FAILURE() << "no two files start on OST 4";
  return pair;
}

std::vector<IoOp> writeBoth(const LanePair& files) {
  return {IoOp::create(files.neighbour), IoOp::create(files.doomed),
          IoOp::write(files.neighbour, 0, kNeighbourBytes),
          IoOp::write(files.doomed, 0, kDoomedBytes)};
}

TEST(ReadaheadRegression, UnlinkDiscardsParkedSegmentsFromTheBank) {
  // The writer parks both files' segments, then unlinks the doomed file:
  // the bank must discard exactly its bytes on every lane of its layout,
  // including the wrapped ones, and return them to the dirty budget, while
  // the neighbour's segments on the same lanes survive until the
  // end-of-job flush writes them out.
  const LanePair files = filesOnTheLastOst();
  const FileId fileCount = std::max(files.doomed, files.neighbour) + 1;
  for (const std::int64_t stripeCount : {1, 3, -1}) {
    SCOPED_TRACE("stripe_count " + std::to_string(stripeCount));
    std::vector<IoOp> program = writeBoth(files);
    program.push_back(IoOp::unlink(files.doomed));
    const PfsSimulator sim{SimulatorOptions{.cluster = fiveOstCluster()}};
    const RunResult result =
        sim.run(laneJob(fileCount, std::move(program)), parkingConfig(stripeCount), 42);
    EXPECT_EQ(result.outcome, RunOutcome::Ok);
    EXPECT_EQ(result.counters.dirtyDiscardedBytes, kDoomedBytes);
    EXPECT_EQ(result.counters.writeRpcBytes, kNeighbourBytes);
  }
}

TEST(ReadaheadRegression, FsyncFlushesOnlyItsFilesParkedSegments) {
  // Fsync of the doomed file must write exactly its parked bytes from
  // every lane of its layout and leave the neighbour's parked; unlinking
  // both afterwards shows which bytes were still parked.
  const LanePair files = filesOnTheLastOst();
  const FileId fileCount = std::max(files.doomed, files.neighbour) + 1;
  for (const std::int64_t stripeCount : {1, 3, -1}) {
    SCOPED_TRACE("stripe_count " + std::to_string(stripeCount));
    std::vector<IoOp> program = writeBoth(files);
    program.push_back(IoOp::fsync(files.doomed));
    program.push_back(IoOp::unlink(files.doomed));
    program.push_back(IoOp::unlink(files.neighbour));
    const PfsSimulator sim{SimulatorOptions{.cluster = fiveOstCluster()}};
    const RunResult result =
        sim.run(laneJob(fileCount, std::move(program)), parkingConfig(stripeCount), 42);
    EXPECT_EQ(result.outcome, RunOutcome::Ok);
    EXPECT_EQ(result.counters.writeRpcBytes, kDoomedBytes);
    EXPECT_EQ(result.counters.dirtyDiscardedBytes, kNeighbourBytes);
  }
}

}  // namespace
}  // namespace stellar::pfs
