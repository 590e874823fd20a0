// Metamorphic laws over the simulator: exact determinism, fault-plan
// attachment neutrality, scale monotonicity, and concurrency-relaxation
// monotonicity. All seeds here are fixed — the laws must hold on every
// seed, so any failure is a real defect, not flake.
#include <gtest/gtest.h>

#include "testkit/metamorphic.hpp"
#include "testkit/run.hpp"

namespace stellar::testkit {
namespace {

TEST(Metamorphic, LawsHoldOnFixedSeeds) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t seed = util::mix64(0x5EED, i);
    for (const Violation& v : checkMetamorphic(generateShape(seed))) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << ": " << v.format();
    }
  }
}

TEST(Metamorphic, SameSeedIsBitIdentical) {
  const GeneratedCase cse = materialize(generateShape(0xD37E));
  const pfs::RunResult a = runCase(cse);
  const pfs::RunResult b = runCase(cse);
  const auto difference = describeDifference(a, b);
  EXPECT_FALSE(difference.has_value()) << *difference;
}

TEST(Metamorphic, CellifiedCaseIsBitIdenticalAcrossBackendsAndShards) {
  // The determinism contract across worker counts: whether the cells run
  // inline in cell order (1 worker) or concurrently (2, 4) is a pure
  // performance choice. Compare full RunAudits via describeDifference, not
  // just wall times.
  const GeneratedCase base = materialize(generateShape(0xCE11));
  const GeneratedCase celled = cellify(base, 4);
  const pfs::RunResult reference = runCase(celled, 1);
  for (const std::uint32_t workers : {2U, 4U}) {
    const pfs::RunResult parallel = runCase(celled, workers);
    const auto difference = describeDifference(reference, parallel);
    EXPECT_FALSE(difference.has_value()) << workers << " workers: " << *difference;
  }
}

TEST(Metamorphic, CellifyPadsRanksToFullCells) {
  const GeneratedCase base = materialize(generateShape(0xCE11));
  const GeneratedCase celled = cellify(base, 3);
  EXPECT_EQ(celled.cluster.cells, 3u);
  EXPECT_EQ(celled.cluster.clientNodes % 3, 0u);
  EXPECT_EQ(celled.cluster.ossNodes, base.cluster.ossNodes * 3);
  EXPECT_EQ(celled.job.rankCount() % 3, 0u);
  EXPECT_EQ(celled.job.rankCount(), celled.cluster.totalRanks());
  EXPECT_EQ(celled.job.files.size(), base.job.files.size() * 3);
}

TEST(Metamorphic, DifferentSeedsDiffer) {
  // Sanity check on describeDifference itself: it must be able to see a
  // difference, or the determinism law above is vacuous.
  CaseShape shape = generateShape(0xD37E);
  const pfs::RunResult a = runCase(materialize(shape));
  shape.seed ^= 1;
  const pfs::RunResult b = runCase(materialize(shape));
  EXPECT_TRUE(describeDifference(a, b).has_value());

  // It sees the whole result: one field changed anywhere is a difference.
  ASSERT_GE(a.files.size(), 2u);
  pfs::RunResult fileBytes = a;
  ++fileBytes.files[1].bytesRead;
  EXPECT_EQ(describeDifference(a, fileBytes), "results differ in file 1");
  pfs::RunResult reason = a;
  reason.failureReason += " (edited)";
  EXPECT_EQ(describeDifference(a, reason), "results differ in failureReason");
  pfs::RunResult budget = a;
  ++budget.audit.dirtyBudgetBytes;
  EXPECT_EQ(describeDifference(a, budget), "results differ in audit totals");
}

}  // namespace
}  // namespace stellar::testkit
