// Campaigns run on TuningService: spec expansion and JSON, kill/resume byte
// identity of the aggregate document, torn session journals, memory-only
// runs and failed cells.
#include "service/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "exp/experience_store.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace stellar::service {
namespace {

namespace fs = std::filesystem;

CampaignSpec smallSpec() {
  CampaignSpec spec;
  spec.name = "test-campaign";
  spec.workloads = {"IOR_64K", "MDWorkbench_8K"};
  spec.seeds = {7, 8};
  spec.scale = 0.05;
  return spec;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / ("campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CampaignSpec, CellsAreTheFullDeterministicProduct) {
  CampaignSpec spec = smallSpec();
  spec.models = {"claude-3.7-sonnet", "gpt-4o"};
  spec.faultScenarios = {"", "degraded-ost"};
  const auto cells = spec.cells();
  ASSERT_EQ(cells.size(), 16U);  // 2 workloads x 2 seeds x 2 models x 2 faults
  EXPECT_EQ(cells[0].key(), "IOR_64K|7|claude-3.7-sonnet|none");
  EXPECT_EQ(cells[1].key(), "IOR_64K|7|claude-3.7-sonnet|degraded-ost");
  EXPECT_EQ(cells.back().key(), "MDWorkbench_8K|8|gpt-4o|degraded-ost");
}

TEST(CampaignSpec, JsonRoundTripAndValidation) {
  CampaignSpec spec = smallSpec();
  spec.faultScenarios = {"", "flaky-network"};
  const CampaignSpec back =
      CampaignSpec::fromJson(util::Json::parse(spec.toJson().dump()));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.workloads, spec.workloads);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.models, spec.models);
  EXPECT_EQ(back.faultScenarios, spec.faultScenarios);
  EXPECT_EQ(back.warmStart, spec.warmStart);

  util::Json missing = util::Json::makeObject();
  missing.set("name", "broken");
  EXPECT_THROW((void)CampaignSpec::fromJson(missing), util::JsonError);

  // Integers outside the field's range are rejected, not cast.
  for (const char* bad : {
           R"({"workloads":["IOR_64K"],"seeds":[-1]})",
           R"({"workloads":["IOR_64K"],"seeds":[1e300]})",
           R"({"workloads":["IOR_64K"],"seeds":[7],"ranks":5e9})",
       }) {
    EXPECT_THROW((void)CampaignSpec::fromJson(util::Json::parse(bad)),
                 util::JsonError)
        << bad;
  }
}

TEST(CampaignRunner, ResumeAfterKillIsByteIdenticalAndSkipsCompletedCells) {
  const CampaignSpec spec = smallSpec();

  // Uninterrupted reference run.
  const fs::path dirA = freshDir("full");
  ServiceOptions optionsA;
  optionsA.storePath = (dirA / "store.jsonl").string();
  const CampaignResult full = runCampaign(spec, optionsA);
  ASSERT_TRUE(full.complete);
  EXPECT_EQ(full.cells.size(), 4U);
  EXPECT_EQ(full.executed, 4U);
  EXPECT_EQ(full.skipped, 0U);
  const std::string docFull = full.aggregateJson(spec).dump(2);

  // Killed after 2 cells (maxFreshSessions is the deterministic kill),
  // then resumed.
  const fs::path dirB = freshDir("resume");
  ServiceOptions optionsB;
  optionsB.storePath = (dirB / "store.jsonl").string();
  optionsB.maxFreshSessions = 2;
  const CampaignResult partial = runCampaign(spec, optionsB);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed, 2U);
  // No commit yet: the store file holds nothing (the tenant shard does).
  EXPECT_EQ((exp::ExperienceStore{optionsB.storePath, {}}).size(), 0U);

  optionsB.maxFreshSessions = 0;
  const CampaignResult resumed = runCampaign(spec, optionsB);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.executed, 2U);
  EXPECT_EQ(resumed.skipped, 2U);
  EXPECT_EQ(resumed.aggregateJson(spec).dump(2), docFull);

  // Commit happened exactly once, with one record per cell (dedup by key).
  exp::ExperienceStore store{optionsB.storePath, {}};
  EXPECT_EQ(store.size(), 4U);
  // Tenant shard files were absorbed and removed.
  for (const auto& entry : fs::directory_iterator(dirB)) {
    EXPECT_EQ(entry.path().string().find(".tenant-"), std::string::npos)
        << entry.path();
  }
}

TEST(CampaignRunner, TornJournalFinalLineReExecutesOnlyThatCell) {
  const CampaignSpec spec = smallSpec();
  const fs::path dir = freshDir("corrupt");
  ServiceOptions options;
  options.storePath = (dir / "store.jsonl").string();
  const CampaignResult full = runCampaign(spec, options);
  ASSERT_TRUE(full.complete);
  const std::string docFull = full.aggregateJson(spec).dump(2);

  // Tear the final line of the second cell journal (a kill mid-write).
  const std::vector<std::string> journals =
      util::listDir(options.storePath + ".sessions");
  ASSERT_EQ(journals.size(), 4U);
  const std::string journal = util::readFile(journals[1]);
  const std::size_t finalLine = journal.rfind("{\"type\":\"final\"");
  ASSERT_NE(finalLine, std::string::npos);
  util::writeFile(journals[1], journal.substr(0, finalLine) + "{\"type\":\"fin");

  const CampaignResult rerun = runCampaign(spec, options);
  ASSERT_TRUE(rerun.complete);
  EXPECT_EQ(rerun.executed, 1U);  // only the damaged cell re-executes
  EXPECT_EQ(rerun.skipped, 3U);
  EXPECT_EQ(rerun.aggregateJson(spec).dump(2), docFull);
}

TEST(CampaignRunner, MemoryOnlyCampaignRunsWithoutAnyFiles) {
  CampaignSpec spec = smallSpec();
  spec.workloads = {"IOR_64K"};
  spec.seeds = {3};
  ServiceOptions options;  // no storePath: nothing persisted, no resume
  const CampaignResult result = runCampaign(spec, options);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.cells.size(), 1U);
  EXPECT_FALSE(result.cells[0].failed);
  EXPECT_GT(result.cells[0].speedup, 1.0);
}

TEST(CampaignRunner, UnknownWorkloadBecomesAFailedCellNotACrash) {
  CampaignSpec spec = smallSpec();
  // An empty name is refused at admission; both still become failed cells.
  spec.workloads = {"NoSuchWorkload", ""};
  spec.seeds = {1};
  const CampaignResult result = runCampaign(spec, ServiceOptions{});
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.cells.size(), 2U);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.failed) << cell.key;
    EXPECT_FALSE(cell.error.empty()) << cell.key;
  }
}

}  // namespace
}  // namespace stellar::service
