// service_fleet — the stellard service gate: session accounting,
// coalescing, and the service determinism law. (Fleet throughput and
// latency are perfbench's `fleet` workload, measured with provenance.)
//
// One request schedule (3 tenants x several cells, with duplicate
// submissions that must coalesce) is run through TuningService four ways:
// 1 worker and 8 workers, each with and without an injected `llm:` fault
// plan. Per-session result documents (latency-free by construction) are
// concatenated in session order and byte-compared across worker counts.
//
// Gate (exit non-zero on breach):
//   - >= 8 concurrent sessions accepted, all completed, none failed
//   - coalescing hit rate > 0 and fresh engine runs == distinct cells
//   - 1-vs-8-worker documents byte-identical, fault-free AND faulted
//
// Emits BENCH_service.json (rows: name, metric, value, seed) in the
// current directory — run from the repo root to refresh the checked-in
// copy. `--quick` shrinks the schedule for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/service.hpp"

namespace {

using namespace stellar;

std::vector<service::SubmitOptions> schedule(bool quick,
                                             const std::string& faults) {
  // Duplicates are deliberate: bob re-asks alice's cells (cross-tenant
  // coalescing) and carol re-asks her own. 10 sessions over 7 cells in
  // quick mode; 14 over 10 otherwise.
  std::vector<service::SubmitOptions> out;
  const auto add = [&](const std::string& tenant, const std::string& workload,
                       std::uint64_t seed) {
    service::SubmitOptions request;
    request.tenant = tenant;
    request.workload = workload;
    request.seed = seed;
    request.scale = 0.05;
    request.faults = faults;
    request.warmStart = false;
    out.push_back(request);
  };
  add("alice", "IOR_64K", 7);
  add("bob", "IOR_64K", 7);  // duplicate of alice's: coalesces
  add("alice", "MDWorkbench_8K", 7);
  add("carol", "IOR_16M", 7);
  add("carol", "IOR_16M", 7);  // same-tenant duplicate: coalesces
  add("bob", "IOR_64K", 8);
  add("alice", "IOR_16M", 8);
  add("bob", "MDWorkbench_8K", 7);  // duplicate of alice's: coalesces
  add("carol", "IOR_64K", 9);
  add("alice", "MDWorkbench_8K", 9);
  if (!quick) {
    add("bob", "IOR_16M", 10);
    add("carol", "MDWorkbench_8K", 10);
    add("bob", "IOR_16M", 10);  // duplicate: coalesces
    add("alice", "IOR_64K", 11);
  }
  return out;
}

struct FleetRun {
  std::string docs;  // concatenated per-session result documents
  service::ServiceStats stats;
};

FleetRun runFleet(bool quick, const std::string& faults, std::size_t workers) {
  service::ServiceOptions options;
  options.workers = workers;
  service::TenantPolicy heavy;
  heavy.weight = 2.0;
  options.tenants["alice"] = heavy;  // weighted fairness on a live schedule
  service::TuningService fleet{options};

  for (const service::SubmitOptions& request : schedule(quick, faults)) {
    const service::SubmitResult submitted = fleet.submit(request);
    if (!submitted.accepted()) {
      std::printf("FAIL: submission rejected: %s\n",
                  submitted.rejection->detail.c_str());
      return {};
    }
  }
  FleetRun run;
  for (const service::SessionResult& result : fleet.drainAll()) {
    run.docs += result.toJson().dump() + "\n";
  }
  run.stats = fleet.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }
  const std::string faultPlan = "llm:timeout:0.3@0-99";
  bench::BenchRows rows{"service", 7};
  bool ok = true;

  // The headline run: 8 workers, no faults.
  const FleetRun fleet = runFleet(quick, "", 8);
  const std::size_t sessions = fleet.stats.submitted;
  const double hitRate = sessions == 0 ? 0.0
                                       : static_cast<double>(fleet.stats.coalesced) /
                                             static_cast<double>(sessions);
  std::printf("fleet: %zu sessions (%zu cells), coalescing %.0f%%\n", sessions,
              fleet.stats.freshRuns, hitRate * 100);
  rows.add("sessions", static_cast<double>(sessions));
  rows.add("distinct_cells", static_cast<double>(fleet.stats.freshRuns));
  rows.add("coalescing_hit_rate", hitRate);
  if (sessions < 8) {
    std::printf("FAIL: gate needs >= 8 concurrent sessions, got %zu\n", sessions);
    ok = false;
  }
  if (fleet.stats.completed != sessions || fleet.stats.failed != 0) {
    std::printf("FAIL: %zu/%zu completed, %zu failed\n", fleet.stats.completed,
                sessions, fleet.stats.failed);
    ok = false;
  }
  if (fleet.stats.coalesced == 0 ||
      fleet.stats.freshRuns + fleet.stats.coalesced != sessions) {
    std::printf("FAIL: coalescing broke (%zu coalesced, %zu fresh of %zu)\n",
                fleet.stats.coalesced, fleet.stats.freshRuns, sessions);
    ok = false;
  }

  // Determinism law: byte-identical per-session documents at 1 and 8
  // workers, fault-free and under an injected llm: fault plan.
  for (const bool faulted : {false, true}) {
    const std::string faults = faulted ? faultPlan : "";
    const std::string docs1 = runFleet(quick, faults, 1).docs;
    const std::string& docs8 = faulted ? runFleet(quick, faults, 8).docs : fleet.docs;
    const bool identical = !docs1.empty() && docs1 == docs8;
    rows.add(faulted ? "byte_identical_1v8_faulted" : "byte_identical_1v8",
             identical ? 1.0 : 0.0);
    std::printf("%s 1-vs-8-worker documents: %s (%zu bytes)\n",
                faulted ? "faulted" : "fault-free",
                identical ? "byte-identical" : "DIFFER", docs1.size());
    if (!identical) {
      std::printf("FAIL: worker count leaked into %s results\n",
                  faulted ? "faulted" : "fault-free");
      ok = false;
    }
  }

  rows.write("BENCH_service.json");
  std::printf("%s\n", ok ? "service gate PASSED" : "service gate FAILED");
  return ok ? 0 : 1;
}
