#include "testkit/run.hpp"

#include <algorithm>

namespace stellar::testkit {

pfs::RunResult runCase(const GeneratedCase& cse, obs::CounterRegistry* registry) {
  return runCase(cse, 1, registry);
}

pfs::RunResult runCase(const GeneratedCase& cse, std::uint32_t workers,
                       obs::CounterRegistry* registry) {
  pfs::SimulatorOptions options;
  options.cluster = cse.cluster;
  options.counters = registry;
  options.workers = workers;
  if (!cse.shape.faults.empty()) {
    options.faults = &cse.shape.faults;
  }
  const pfs::PfsSimulator sim{options};
  return sim.run(cse.job, cse.shape.config, cse.shape.seed);
}

namespace {

/// The first difference between two per-component vectors: "<what> count"
/// or "<what> <index>"; nullopt when equal.
template <typename T>
std::optional<std::string> firstElementDifference(const std::vector<T>& a,
                                                  const std::vector<T>& b,
                                                  const std::string& what) {
  if (a.size() != b.size()) {
    return what + " count";
  }
  const auto mismatch = std::mismatch(a.begin(), a.end(), b.begin());
  if (mismatch.first == a.end()) {
    return std::nullopt;
  }
  return what + " " + std::to_string(mismatch.first - a.begin());
}

}  // namespace

std::optional<std::string> describeDifference(const pfs::RunResult& a,
                                              const pfs::RunResult& b) {
  const auto diff = [](const std::string& what) -> std::optional<std::string> {
    return "results differ in " + what;
  };
  if (a.wallSeconds != b.wallSeconds) return diff("wallSeconds");
  if (a.rawWallSeconds != b.rawWallSeconds) return diff("rawWallSeconds");
  if (a.simEndSeconds != b.simEndSeconds) return diff("simEndSeconds");
  if (a.outcome != b.outcome) return diff("outcome");
  if (a.failureReason != b.failureReason) return diff("failureReason");
  if (a.barrierTimes != b.barrierTimes) return diff("barrierTimes");
  if (a.counters != b.counters) return diff("counters");
  if (const auto what = firstElementDifference(a.ranks, b.ranks, "rank")) return diff(*what);
  if (const auto what = firstElementDifference(a.files, b.files, "file")) return diff(*what);
  if (const auto what = firstElementDifference(a.audit.osts, b.audit.osts, "audit of ost")) {
    return diff(*what);
  }
  if (a.audit != b.audit) return diff("audit totals");
  return std::nullopt;
}

}  // namespace stellar::testkit
