// campaign_fleet — fleet-scale campaign orchestration on the tuning
// service: determinism of the parallel run and resumability of a killed
// campaign.
//
// Scenario A: a 2x2 campaign (two workloads x two seeds) runs to
// completion in one invocation; the aggregate JSON document is captured.
// Scenario B: the same campaign in a fresh directory is cut off after two
// cells (maxFreshSessions, the deterministic stand-in for a kill), then re-run
// to completion. The re-run must execute only the missing cells, and its
// aggregate document must be byte-identical to scenario A's.
//
// Gate (exit non-zero on breach):
//   - both scenarios complete with 4 cells and a committed store
//   - scenario B's second invocation skips exactly the 2 finished cells
//   - the aggregate JSON documents are byte-identical
//
// Emits BENCH_campaign.json (rows: name, metric, value, seed) in the
// current directory — run from the repo root to refresh the checked-in copy.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "exp/experience_store.hpp"
#include "service/campaign.hpp"

namespace {

using namespace stellar;
namespace fs = std::filesystem;

service::CampaignSpec benchSpec() {
  service::CampaignSpec spec;
  spec.name = "bench-fleet";
  spec.workloads = {"IOR_64K", "MDWorkbench_8K"};
  spec.seeds = {7, 8};
  spec.scale = 0.05;
  return spec;
}

}  // namespace

int main() {
  const fs::path root = fs::temp_directory_path() / "stellar_campaign_fleet";
  fs::remove_all(root);
  fs::create_directories(root / "a");
  fs::create_directories(root / "b");
  const service::CampaignSpec spec = benchSpec();
  bench::BenchRows rows{"campaign", 7};
  bool ok = true;

  // Scenario A: one uninterrupted invocation.
  std::string docA;
  {
    service::ServiceOptions options;
    options.storePath = (root / "a" / "store.jsonl").string();
    const service::CampaignResult result = service::runCampaign(spec, options);
    docA = result.aggregateJson(spec).dump(2);
    rows.add("uninterrupted_cells", static_cast<double>(result.cells.size()));
    std::printf("A: %zu cells, executed %zu, complete=%d\n", result.cells.size(),
                result.executed, result.complete ? 1 : 0);
    if (!result.complete || result.cells.size() != 4 || result.executed != 4) {
      std::printf("FAIL: scenario A did not complete all 4 cells\n");
      ok = false;
    }
    exp::ExperienceStore store{options.storePath, {}};
    rows.add("committed_records", static_cast<double>(store.size()));
    if (store.size() != 4) {
      std::printf("FAIL: scenario A committed %zu records, expected 4\n",
                  store.size());
      ok = false;
    }
  }

  // Scenario B: killed after two cells, then resumed.
  std::string docB;
  {
    service::ServiceOptions options;
    options.storePath = (root / "b" / "store.jsonl").string();
    options.maxFreshSessions = 2;
    const service::CampaignResult partial = service::runCampaign(spec, options);
    std::printf("B(partial): executed %zu, complete=%d\n", partial.executed,
                partial.complete ? 1 : 0);
    if (partial.complete || partial.executed != 2) {
      std::printf("FAIL: partial run should have stopped at 2 cells\n");
      ok = false;
    }

    options.maxFreshSessions = 0;
    const service::CampaignResult resumed = service::runCampaign(spec, options);
    docB = resumed.aggregateJson(spec).dump(2);
    rows.add("resume_skipped_cells", static_cast<double>(resumed.skipped));
    rows.add("resume_executed_cells", static_cast<double>(resumed.executed));
    std::printf("B(resume): executed %zu, skipped %zu, complete=%d\n",
                resumed.executed, resumed.skipped, resumed.complete ? 1 : 0);
    if (!resumed.complete || resumed.skipped != 2 || resumed.executed != 2) {
      std::printf("FAIL: resume should skip 2 completed cells and run 2\n");
      ok = false;
    }
    exp::ExperienceStore store{options.storePath, {}};
    if (store.size() != 4) {
      std::printf("FAIL: resumed campaign committed %zu records, expected 4\n",
                  store.size());
      ok = false;
    }
  }

  const bool identical = docA == docB;
  rows.add("aggregate_byte_identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::printf("FAIL: resumed aggregate differs from uninterrupted aggregate\n");
    ok = false;
  } else {
    std::printf("resumed aggregate is byte-identical (%zu bytes)\n", docA.size());
  }

  rows.write("BENCH_campaign.json");

  fs::remove_all(root);
  std::printf("%s\n", ok ? "campaign gate PASSED" : "campaign gate FAILED");
  return ok ? 0 : 1;
}
