#include "service/campaign.hpp"

#include <algorithm>
#include <map>

#include "obs/trace.hpp"
#include "util/file.hpp"
#include "util/stats.hpp"

namespace stellar::service {

namespace {

constexpr const char* kTenant = "campaign";

SubmitOptions requestFor(const CampaignSpec& spec, const CampaignCell& cell) {
  SubmitOptions request;
  request.tenant = kTenant;
  request.workload = cell.workload;
  request.seed = cell.seed;
  request.model = cell.model;
  request.faults = cell.faults;
  request.scale = spec.scale;
  request.ranks = spec.ranks;
  request.warmStart = spec.warmStart;
  return request;
}

/// TuningRunResult::iterationsToWithin(0.05) over the attempts of a result
/// document (an attempt whose measurement failed is valid:false there).
std::size_t iterationsToBest(const util::Json::Array& attempts, double best) {
  constexpr double kTolerance = 0.05;
  if (best > 0.0) {
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      if (attempts[i].getBool("valid") &&
          attempts[i].getNumber("seconds") <= best * (1.0 + kTolerance)) {
        return i + 1;
      }
    }
  }
  return attempts.size() + 1;
}

/// The campaign's row for one cell, decoded from its session's result.
CellResult decodeCell(const CampaignCell& cell, const SessionResult& session) {
  CellResult result;
  result.key = cell.key();
  result.workload = cell.workload;
  result.seed = cell.seed;
  result.model = cell.model;
  result.faults = cell.faults;
  if (session.state != SessionState::Completed) {
    result.failed = true;
    result.error = session.error;
    return result;
  }
  const util::Json& doc = session.cellDoc;
  result.defaultSeconds = doc.getNumber("default_seconds");
  result.bestSeconds = doc.getNumber("best_seconds");
  result.speedup = doc.getNumber("best_speedup");
  const util::Json::Array& attempts = doc.at("attempts").asArray();
  result.attempts = attempts.size();
  result.iterationsToBest = iterationsToBest(attempts, result.bestSeconds);
  result.warmStarted = doc.getBool("warm_started");
  result.endReason = doc.getString("end_reason");
  return result;
}

}  // namespace

// ------------------------------------------------------------------- spec --

std::string CampaignCell::key() const {
  return workload + "|" + std::to_string(seed) + "|" + model + "|" +
         (faults.empty() ? "none" : faults);
}

std::vector<CampaignCell> CampaignSpec::cells() const {
  std::vector<CampaignCell> out;
  for (const std::string& workload : workloads) {
    for (const std::uint64_t seed : seeds) {
      for (const std::string& model : models) {
        for (const std::string& fault : faultScenarios) {
          out.push_back(CampaignCell{workload, seed, model, fault});
        }
      }
    }
  }
  return out;
}

util::Json CampaignSpec::toJson() const {
  util::Json root = util::Json::makeObject();
  root.set("name", name);
  util::Json w = util::Json::makeArray();
  for (const std::string& s : workloads) {
    w.push(s);
  }
  root.set("workloads", std::move(w));
  util::Json sd = util::Json::makeArray();
  for (const std::uint64_t s : seeds) {
    sd.push(static_cast<std::int64_t>(s));
  }
  root.set("seeds", std::move(sd));
  util::Json m = util::Json::makeArray();
  for (const std::string& s : models) {
    m.push(s);
  }
  root.set("models", std::move(m));
  util::Json fs = util::Json::makeArray();
  for (const std::string& s : faultScenarios) {
    fs.push(s);
  }
  root.set("fault_scenarios", std::move(fs));
  root.set("scale", scale);
  root.set("ranks", static_cast<std::int64_t>(ranks));
  root.set("warm_start", warmStart);
  return root;
}

CampaignSpec CampaignSpec::fromJson(const util::Json& json) {
  CampaignSpec spec;
  spec.name = json.getString("name", spec.name);
  if (!json.contains("workloads")) {
    throw util::JsonError("campaign spec is missing 'workloads'");
  }
  spec.workloads.clear();
  for (const util::Json& w : json.at("workloads").asArray()) {
    spec.workloads.push_back(w.asString());
  }
  if (!json.contains("seeds")) {
    throw util::JsonError("campaign spec is missing 'seeds'");
  }
  spec.seeds.clear();
  for (const util::Json& s : json.at("seeds").asArray()) {
    spec.seeds.push_back(s.asInteger<std::uint64_t>());
  }
  if (json.contains("models")) {
    spec.models.clear();
    for (const util::Json& m : json.at("models").asArray()) {
      spec.models.push_back(m.asString());
    }
  }
  if (json.contains("fault_scenarios")) {
    spec.faultScenarios.clear();
    for (const util::Json& f : json.at("fault_scenarios").asArray()) {
      spec.faultScenarios.push_back(f.asString());
    }
  }
  spec.scale = json.getNumber("scale", spec.scale);
  spec.ranks = json.getInteger<std::uint32_t>("ranks", spec.ranks);
  spec.warmStart = json.getBool("warm_start", spec.warmStart);
  if (spec.workloads.empty() || spec.seeds.empty() || spec.models.empty() ||
      spec.faultScenarios.empty()) {
    throw util::JsonError("campaign spec expands to an empty grid");
  }
  return spec;
}

CampaignSpec CampaignSpec::loadFile(const std::string& path) {
  return fromJson(util::Json::parse(util::readFile(path)));
}

// ---------------------------------------------------------------- results --

util::Json CellResult::toJson() const {
  util::Json root = util::Json::makeObject();
  root.set("key", key);
  root.set("workload", workload);
  root.set("seed", static_cast<std::int64_t>(seed));
  root.set("model", model);
  root.set("faults", faults);
  root.set("default_seconds", defaultSeconds);
  root.set("best_seconds", bestSeconds);
  root.set("speedup", speedup);
  root.set("attempts", static_cast<std::int64_t>(attempts));
  root.set("iterations_to_best", static_cast<std::int64_t>(iterationsToBest));
  root.set("warm_started", warmStarted);
  root.set("end_reason", endReason);
  if (failed) {
    root.set("failed", true);
    root.set("error", error);
  }
  return root;
}

util::Json CampaignResult::aggregateJson(const CampaignSpec& spec) const {
  util::Json root = util::Json::makeObject();
  root.set("campaign", spec.name);
  root.set("spec", spec.toJson());

  util::Json cellArr = util::Json::makeArray();
  for (const CellResult& cell : cells) {
    cellArr.push(cell.toJson());
  }
  root.set("cells", std::move(cellArr));

  std::vector<double> speedups;
  std::vector<double> attemptCounts;
  std::vector<double> warmIters;
  std::vector<double> coldIters;
  std::size_t failedCount = 0;
  std::map<std::string, std::vector<double>> byWorkload;
  for (const CellResult& cell : cells) {
    if (cell.failed) {
      ++failedCount;
      continue;
    }
    speedups.push_back(cell.speedup);
    attemptCounts.push_back(static_cast<double>(cell.attempts));
    (cell.warmStarted ? warmIters : coldIters)
        .push_back(static_cast<double>(cell.iterationsToBest));
    byWorkload[cell.workload].push_back(cell.speedup);
  }
  // Summed in ascending order, so the mean does not depend on cell order.
  std::sort(speedups.begin(), speedups.end());

  util::Json agg = util::Json::makeObject();
  agg.set("cell_count", static_cast<std::int64_t>(cells.size()));
  agg.set("failed_cells", static_cast<std::int64_t>(failedCount));
  agg.set("mean_speedup", util::mean(speedups));
  agg.set("median_speedup", util::median(speedups));
  agg.set("mean_attempts", util::mean(attemptCounts));
  agg.set("warm_started_cells", static_cast<std::int64_t>(warmIters.size()));
  agg.set("warm_median_iterations_to_best", util::median(warmIters));
  agg.set("cold_median_iterations_to_best", util::median(coldIters));
  util::Json perWorkload = util::Json::makeObject();
  for (const auto& [workload, values] : byWorkload) {  // std::map: sorted keys
    util::Json stats = util::Json::makeObject();
    stats.set("cells", static_cast<std::int64_t>(values.size()));
    stats.set("mean_speedup", util::mean(values));
    stats.set("median_speedup", util::median(values));
    perWorkload.set(workload, std::move(stats));
  }
  agg.set("per_workload", std::move(perWorkload));
  root.set("aggregate", std::move(agg));
  root.set("complete", complete);
  return root;
}

// ----------------------------------------------------------------- runner --

CampaignResult runCampaign(const CampaignSpec& spec, ServiceOptions options) {
  auto span = obs::beginSpan(options.tracer, "campaign", spec.name);
  const std::vector<CampaignCell> cells = spec.cells();
  std::vector<SubmitOptions> requests;
  for (const CampaignCell& cell : cells) {
    requests.push_back(requestFor(spec, cell));
    options.recallExcludes.insert(cellKey(requests.back()));
  }
  // Every cell stays outstanding until drainAll(), and the campaign tenant
  // may run as many cells at once as there are workers.
  options.maxOutstanding = cells.size();
  options.tenants[kTenant] =
      TenantPolicy{.maxOutstanding = cells.size(), .maxRunning = cells.size()};

  TuningService service{std::move(options)};
  std::vector<SubmitResult> submitted;
  for (const SubmitOptions& request : requests) {
    submitted.push_back(service.submit(request));
  }
  // drainAll() answers in ascending session id, i.e. in submission order.
  const std::vector<SessionResult> sessions = service.drainAll();
  (void)service.commit();  // deferred by the service while a cell is interrupted

  CampaignResult out;
  auto session = sessions.begin();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Admission refuses only a malformed cell (say, an empty workload
    // name); it is filed as a failed cell like any other bad request data.
    SessionResult refused;
    if (!submitted[i].accepted()) {
      refused.state = SessionState::Failed;
      refused.error = submitted[i].rejection->detail;
    }
    const SessionResult& result = submitted[i].accepted() ? *session++ : refused;
    if (result.state != SessionState::Interrupted) {
      out.cells.push_back(decodeCell(cells[i], result));
    }
  }
  std::sort(out.cells.begin(), out.cells.end(),
            [](const CellResult& a, const CellResult& b) { return a.key < b.key; });
  const ServiceStats stats = service.stats();
  out.executed = stats.freshRuns;
  out.skipped = stats.replayed;
  out.complete = stats.interrupted == 0;
  return out;
}

}  // namespace stellar::service
