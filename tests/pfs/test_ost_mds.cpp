// Direct unit tests of the server models: the OST bank's three-stage
// nic/positioning/transfer structure and the MDS cost model.
#include <gtest/gtest.h>

#include "pfs/mds.hpp"
#include "pfs/ost.hpp"

namespace stellar::pfs {
namespace {

struct OstFixture {
  ClusterSpec cluster;
  sim::SimEngine engine;
  OstBank ost{engine, cluster, /*count=*/1};

  double drain() { return engine.run(); }
};

TEST(OstBank, SequentialAccessAvoidsSeeks) {
  OstFixture fx;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    fx.ost.submitBulk(0, /*objectKey=*/7, static_cast<std::uint64_t>(i) * 1048576,
                      1048576, true, [&done] { ++done; });
  }
  fx.drain();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(fx.ost.seeks(0), 1u);  // only the first access positions
  EXPECT_EQ(fx.ost.rpcsServed(0), 8u);
  EXPECT_EQ(fx.ost.bytesServed(0), 8u * 1048576);
}

TEST(OstBank, RandomAccessSeeksEveryTime) {
  OstFixture fx;
  for (int i = 0; i < 8; ++i) {
    // Non-contiguous offsets (stride leaves gaps).
    fx.ost.submitBulk(0, 7, static_cast<std::uint64_t>(i) * 4194304, 1048576, true,
                      [] {});
  }
  fx.drain();
  EXPECT_EQ(fx.ost.seeks(0), 8u);
}

TEST(OstBank, ContiguityIsTrackedPerObject) {
  OstFixture fx;
  // Interleaved sequential streams on two objects: each stream stays
  // contiguous from the object's perspective.
  for (int i = 0; i < 4; ++i) {
    fx.ost.submitBulk(0, 1, static_cast<std::uint64_t>(i) * 65536, 65536, false, [] {});
    fx.ost.submitBulk(0, 2, static_cast<std::uint64_t>(i) * 65536, 65536, false, [] {});
  }
  fx.drain();
  EXPECT_EQ(fx.ost.seeks(0), 2u);  // one initial seek per object
}

TEST(OstBank, AggregateBandwidthCapsAtTheMedia) {
  // 64 MiB of large sequential RPCs from "many clients": total service
  // time must be at least bytes/sequentialBandwidth — the serialized
  // transfer stage — regardless of positioning parallelism.
  OstFixture fx;
  const std::uint64_t rpc = 4 * 1048576;
  for (int i = 0; i < 16; ++i) {
    fx.ost.submitBulk(0, static_cast<std::uint64_t>(i), 0, rpc, true, [] {});
  }
  const double wall = fx.drain();
  const double mediaTime =
      16.0 * static_cast<double>(rpc) / fx.cluster.disk.sequentialBandwidth;
  EXPECT_GT(wall, mediaTime * 0.9);
  EXPECT_LT(wall, mediaTime * 2.0);  // parallel positioning keeps overhead low
}

TEST(OstBank, SmallRandomRpcsAreSeekBoundNotBandwidthBound) {
  // 64 KiB random RPCs: with queueDepth-way positioning, throughput is far
  // below the sequential media rate but far above fully serialized seeks.
  OstFixture fx;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    fx.ost.submitBulk(0, static_cast<std::uint64_t>(i), 0, 65536, false, [] {});
  }
  const double wall = fx.drain();
  const double serializedSeeks = n * fx.cluster.disk.seekPenalty;
  EXPECT_LT(wall, serializedSeeks);  // positioning overlaps
  const double pureBandwidth = n * 65536.0 / fx.cluster.disk.sequentialBandwidth;
  EXPECT_GT(wall, pureBandwidth * 2.0);  // but seeks dominate transfers
}

TEST(OstBank, ResetClearsContiguityAndStats) {
  OstFixture fx;
  fx.ost.submitBulk(0, 7, 0, 65536, true, [] {});
  fx.drain();
  fx.ost.reset();
  EXPECT_EQ(fx.ost.rpcsServed(0), 0u);
  EXPECT_EQ(fx.ost.seeks(0), 0u);
}

TEST(OstBank, StatsAreTrackedPerOst) {
  // Two OSTs in one bank: submissions to one never leak into the other's
  // counters, and the global index maps through the bank's offset.
  ClusterSpec cluster;
  sim::SimEngine engine;
  OstBank bank{engine, cluster, /*count=*/2, /*globalOffset=*/6};
  bank.submitBulk(0, 1, 0, 65536, true, [] {});
  bank.submitBulk(1, 1, 0, 65536, true, [] {});
  bank.submitBulk(1, 1, 65536, 65536, true, [] {});
  engine.run();
  EXPECT_EQ(bank.rpcsServed(0), 1u);
  EXPECT_EQ(bank.rpcsServed(1), 2u);
  EXPECT_EQ(bank.bytesServed(1), 2u * 65536);
  EXPECT_EQ(bank.globalIndex(1), 7u);
}

struct MdsFixture {
  ClusterSpec cluster;
  sim::SimEngine engine;
  MdsModel mds{engine, cluster, /*seed=*/1};
};

TEST(MdsModel, StripeCountScalesCreateAndUnlinkCost) {
  const auto busyFor = [](MetaOpKind kind, std::uint32_t stripes) {
    MdsFixture fx;
    for (int i = 0; i < 200; ++i) {
      fx.mds.submit(kind, stripes, [] {});
    }
    fx.engine.run();
    return fx.mds.busyTime();
  };
  EXPECT_GT(busyFor(MetaOpKind::Create, 5), busyFor(MetaOpKind::Create, 1) * 2.0);
  EXPECT_GT(busyFor(MetaOpKind::Unlink, 5), busyFor(MetaOpKind::Unlink, 1) * 1.5);
  // Stat cost is stripe-independent.
  EXPECT_NEAR(busyFor(MetaOpKind::Stat, 5) / busyFor(MetaOpKind::Stat, 1), 1.0, 0.01);
}

TEST(MdsModel, OpKindsHaveDistinctCosts) {
  const auto busyFor = [](MetaOpKind kind) {
    MdsFixture fx;
    for (int i = 0; i < 500; ++i) {
      fx.mds.submit(kind, 1, [] {});
    }
    fx.engine.run();
    return fx.mds.busyTime();
  };
  EXPECT_GT(busyFor(MetaOpKind::Create), busyFor(MetaOpKind::Stat));
  EXPECT_GT(busyFor(MetaOpKind::Unlink), busyFor(MetaOpKind::Open));
  EXPECT_GT(busyFor(MetaOpKind::Mkdir), busyFor(MetaOpKind::Lock));
}

TEST(MdsModel, ThroughputSaturatesUnderDeepBacklogs) {
  // 10x the backlog must not take more than ~12x the time (bounded
  // congestion contribution, no collapse).
  const auto wallFor = [](int n) {
    MdsFixture fx;
    for (int i = 0; i < n; ++i) {
      fx.mds.submit(MetaOpKind::Stat, 1, [] {});
    }
    return fx.engine.run();
  };
  const double small = wallFor(200);
  const double large = wallFor(2000);
  EXPECT_LT(large / small, 12.0);
  EXPECT_GT(large / small, 6.0);
}

TEST(MdsModel, CountsServedOps) {
  MdsFixture fx;
  for (int i = 0; i < 17; ++i) {
    fx.mds.submit(MetaOpKind::Open, 1, [] {});
  }
  fx.engine.run();
  EXPECT_EQ(fx.mds.opsServed(), 17u);
  EXPECT_STREQ(metaOpName(MetaOpKind::Unlink), "unlink");
}

}  // namespace
}  // namespace stellar::pfs
