#include "service/session.hpp"

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stellar::service {

const char* sessionStateName(SessionState state) noexcept {
  switch (state) {
    case SessionState::Queued:
      return "queued";
    case SessionState::Running:
      return "running";
    case SessionState::Completed:
      return "completed";
    case SessionState::Failed:
      return "failed";
    case SessionState::Interrupted:
      return "interrupted";
  }
  return "unknown";
}

const char* rejectReasonName(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::QueueFull:
      return "queue_full";
    case RejectReason::TenantQuota:
      return "tenant_quota";
    case RejectReason::Stopped:
      return "stopped";
    case RejectReason::BadRequest:
      return "bad_request";
  }
  return "unknown";
}

util::Json SubmitOptions::toJson() const {
  util::Json doc = util::Json::makeObject();
  doc.set("tenant", tenant);
  doc.set("workload", workload);
  doc.set("seed", static_cast<double>(seed));
  doc.set("model", model);
  doc.set("faults", faults);
  doc.set("scale", scale);
  doc.set("ranks", static_cast<double>(ranks));
  doc.set("warm_start", warmStart);
  return doc;
}

SubmitOptions SubmitOptions::fromJson(const util::Json& json) {
  SubmitOptions opts;  // absent fields keep the struct defaults
  opts.tenant = json.getString("tenant", opts.tenant);
  opts.workload = json.getString("workload");
  opts.seed = json.getInteger<std::uint64_t>("seed", opts.seed);
  opts.model = json.getString("model", opts.model);
  opts.faults = json.getString("faults", opts.faults);
  opts.scale = json.getNumber("scale", opts.scale);
  opts.ranks = json.getInteger<std::uint32_t>("ranks", opts.ranks);
  opts.warmStart = json.getBool("warm_start", opts.warmStart);
  return opts;
}

bool validTenantId(const std::string& tenant) noexcept {
  if (tenant.empty()) {
    return false;
  }
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::string cellKey(const SubmitOptions& request) {
  return request.workload + "|" + std::to_string(request.seed) + "|" +
         request.model + "|" + (request.faults.empty() ? "none" : request.faults) +
         "|" + util::formatDouble(request.scale, 6) + "|" +
         std::to_string(request.ranks);
}

std::string cellFileStem(const std::string& key) {
  std::string safe;
  safe.reserve(key.size());
  for (const char c : key) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    safe.push_back(keep ? c : '_');
  }
  if (safe.size() > 48) {
    safe.resize(48);
  }
  return safe + "-" + std::to_string(util::hash64(key));
}

util::Json SessionResult::toJson() const {
  util::Json doc = util::Json::makeObject();
  doc.set("session", static_cast<double>(id));
  doc.set("tenant", tenant);
  doc.set("cell", key);
  doc.set("state", sessionStateName(state));
  doc.set("coalesced", coalesced);
  if (!error.empty()) {
    doc.set("error", error);
  }
  if (!cellDoc.isNull()) {
    doc.set("result", cellDoc);
  }
  return doc;
}

}  // namespace stellar::service
