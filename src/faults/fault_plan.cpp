#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace stellar::faults {

const char* faultKindName(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::OstDegrade: return "ost-degrade";
    case FaultKind::OstOutage: return "ost-outage";
    case FaultKind::MdsOverload: return "mds-overload";
    case FaultKind::RpcDrop: return "rpc-drop";
    case FaultKind::RpcStall: return "rpc-stall";
    case FaultKind::NoiseSpike: return "noise-spike";
    case FaultKind::LlmTimeout: return "llm-timeout";
    case FaultKind::LlmRateLimit: return "llm-rate-limit";
    case FaultKind::LlmTruncated: return "llm-truncated";
    case FaultKind::LlmMalformed: return "llm-malformed";
    case FaultKind::LlmHallucinatedKnob: return "llm-hallucinated-knob";
    case FaultKind::LlmOutOfRange: return "llm-out-of-range";
    case FaultKind::LlmStaleAnalysis: return "llm-stale-analysis";
  }
  return "?";
}

bool isLlmFault(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::LlmTimeout:
    case FaultKind::LlmRateLimit:
    case FaultKind::LlmTruncated:
    case FaultKind::LlmMalformed:
    case FaultKind::LlmHallucinatedKnob:
    case FaultKind::LlmOutOfRange:
    case FaultKind::LlmStaleAnalysis:
      return true;
    case FaultKind::OstDegrade:
    case FaultKind::OstOutage:
    case FaultKind::MdsOverload:
    case FaultKind::RpcDrop:
    case FaultKind::RpcStall:
    case FaultKind::NoiseSpike:
      return false;
  }
  return false;
}

namespace {

[[noreturn]] void badEvent(const FaultEvent& event, const std::string& why) {
  throw FaultSpecError(std::string{faultKindName(event.kind)} + " event: " + why);
}

void validateEvent(const FaultEvent& event) {
  if (!(event.end > event.begin) || event.begin < 0.0) {
    badEvent(event, "window must satisfy 0 <= begin < end (got " +
                        std::to_string(event.begin) + "-" + std::to_string(event.end) + ")");
  }
  switch (event.kind) {
    case FaultKind::OstDegrade:
      if (!(event.magnitude > 0.0) || event.magnitude > 1.0) {
        badEvent(event, "capacity multiplier must be in (0, 1]");
      }
      break;
    case FaultKind::OstOutage:
      break;
    case FaultKind::MdsOverload:
      if (event.magnitude < 1.0) {
        badEvent(event, "overload multiplier must be >= 1");
      }
      break;
    case FaultKind::RpcDrop:
      if (event.magnitude < 0.0 || event.magnitude >= 1.0) {
        badEvent(event, "drop probability must be in [0, 1)");
      }
      break;
    case FaultKind::RpcStall:
      if (event.magnitude < 0.0) {
        badEvent(event, "stall seconds must be >= 0");
      }
      break;
    case FaultKind::NoiseSpike:
      if (event.magnitude < 1.0) {
        badEvent(event, "noise multiplier must be >= 1");
      }
      break;
    case FaultKind::LlmTimeout:
    case FaultKind::LlmRateLimit:
    case FaultKind::LlmTruncated:
    case FaultKind::LlmMalformed:
    case FaultKind::LlmHallucinatedKnob:
    case FaultKind::LlmOutOfRange:
    case FaultKind::LlmStaleAnalysis:
      if (event.magnitude < 0.0 || event.magnitude > 1.0) {
        badEvent(event, "probability must be in [0, 1]");
      }
      break;
  }
  if (!isLlmFault(event.kind) && !event.model.empty()) {
    badEvent(event, "model filter is only meaningful for llm:* kinds");
  }
}

[[noreturn]] void badElement(std::string_view element, const std::string& why) {
  throw FaultSpecError("fault spec element '" + std::string{element} + "': " + why);
}

double parseNumber(std::string_view element, std::string_view token, const char* what) {
  const std::string text{token};
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    badElement(element, std::string{"expected a number for "} + what + ", got '" +
                            text + "'");
  }
  return v;
}

/// Maps the llm:<kind> grammar token to its FaultKind.
FaultKind llmKindByToken(std::string_view element, const std::string& token) {
  if (token == "timeout") return FaultKind::LlmTimeout;
  if (token == "ratelimit") return FaultKind::LlmRateLimit;
  if (token == "truncate") return FaultKind::LlmTruncated;
  if (token == "malformed") return FaultKind::LlmMalformed;
  if (token == "bad-knob") return FaultKind::LlmHallucinatedKnob;
  if (token == "bad-value") return FaultKind::LlmOutOfRange;
  if (token == "stale") return FaultKind::LlmStaleAnalysis;
  badElement(element,
             "unknown llm fault '" + token +
                 "' (expected timeout/ratelimit/truncate/malformed/bad-knob/"
                 "bad-value/stale)");
}

/// Splits the trailing "@<begin>-<end>" window off an element.
std::pair<double, double> parseWindow(std::string_view element, std::string_view tail) {
  const std::size_t dash = tail.find('-');
  if (dash == std::string_view::npos) {
    badElement(element, "expected a window '@<begin>-<end>'");
  }
  const double begin = parseNumber(element, tail.substr(0, dash), "window begin");
  const double end = parseNumber(element, tail.substr(dash + 1), "window end");
  return {begin, end};
}

FaultEvent parseElement(std::string_view element) {
  const std::size_t at = element.find('@');
  const std::string_view head = element.substr(0, at);
  std::vector<std::string> parts = util::split(std::string{head}, ':');

  FaultEvent event;
  const auto requireWindow = [&] {
    if (at == std::string_view::npos) {
      badElement(element, "missing '@<begin>-<end>' window");
    }
    const auto [begin, end] = parseWindow(element, element.substr(at + 1));
    event.begin = begin;
    event.end = end;
  };

  if (parts.size() >= 1 && parts[0] == "ost") {
    if (parts.size() < 3) {
      badElement(element, "expected ost:<idx|*>:<degrade|outage>...");
    }
    if (parts[1] == "*") {
      event.target = kAllTargets;
    } else {
      event.target = static_cast<std::int32_t>(
          parseNumber(element, parts[1], "OST index"));
      if (event.target < 0) {
        badElement(element, "OST index must be >= 0 (or '*')");
      }
    }
    if (parts[2] == "degrade") {
      if (parts.size() != 4) {
        badElement(element, "expected ost:<idx|*>:degrade:<mult>@<begin>-<end>");
      }
      event.kind = FaultKind::OstDegrade;
      event.magnitude = parseNumber(element, parts[3], "capacity multiplier");
    } else if (parts[2] == "outage") {
      if (parts.size() != 3) {
        badElement(element, "expected ost:<idx|*>:outage@<begin>-<end>");
      }
      event.kind = FaultKind::OstOutage;
    } else {
      badElement(element, "unknown ost fault '" + parts[2] + "'");
    }
  } else if (parts.size() == 3 && parts[0] == "mds" && parts[1] == "overload") {
    event.kind = FaultKind::MdsOverload;
    event.magnitude = parseNumber(element, parts[2], "overload multiplier");
  } else if (parts.size() == 3 && parts[0] == "rpc" && parts[1] == "drop") {
    event.kind = FaultKind::RpcDrop;
    event.magnitude = parseNumber(element, parts[2], "drop probability");
  } else if (parts.size() == 3 && parts[0] == "rpc" && parts[1] == "stall") {
    event.kind = FaultKind::RpcStall;
    event.magnitude = parseNumber(element, parts[2], "stall seconds");
  } else if (parts.size() == 3 && parts[0] == "noise" && parts[1] == "spike") {
    event.kind = FaultKind::NoiseSpike;
    event.magnitude = parseNumber(element, parts[2], "noise multiplier");
  } else if (parts.size() >= 1 && parts[0] == "llm") {
    if (parts.size() < 3 || parts.size() > 4) {
      badElement(element, "expected llm:<kind>:<prob>[:<model|*>]@<begin>-<end>");
    }
    event.kind = llmKindByToken(element, parts[1]);
    event.magnitude = parseNumber(element, parts[2], "probability");
    if (parts.size() == 4 && parts[3] != "*") {
      if (parts[3].empty()) {
        badElement(element, "model filter must be non-empty (or '*')");
      }
      event.model = parts[3];
    }
  } else {
    badElement(element,
               "unknown fault kind (expected ost:/mds:overload/rpc:drop/"
               "rpc:stall/noise:spike/llm:<kind>/seed:<n>, or a scenario "
               "name: " +
                   util::join(scenarioNames(), ", ") + ")");
  }
  requireWindow();
  validateEvent(event);
  return event;
}

}  // namespace

void FaultPlan::validate() const {
  for (const FaultEvent& event : events) {
    validateEvent(event);
  }
}

double FaultPlan::noiseMultiplierOver(double wallSeconds) const noexcept {
  if (wallSeconds <= 0.0) {
    return 1.0;
  }
  double factor = 1.0;
  for (const FaultEvent& event : events) {
    if (event.kind != FaultKind::NoiseSpike) {
      continue;
    }
    const double overlap =
        std::min(event.end, wallSeconds) - std::max(event.begin, 0.0);
    if (overlap > 0.0) {
      factor += (overlap / wallSeconds) * (event.magnitude - 1.0);
    }
  }
  return factor;
}

util::Json FaultPlan::toJson() const {
  util::Json root = util::Json::makeObject();
  root.set("seed", static_cast<std::int64_t>(seed));
  util::Json arr = util::Json::makeArray();
  for (const FaultEvent& event : events) {
    util::Json e = util::Json::makeObject();
    e.set("kind", faultKindName(event.kind));
    if (event.target != kAllTargets) {
      e.set("target", static_cast<std::int64_t>(event.target));
    }
    e.set("begin", event.begin);
    e.set("end", event.end);
    e.set("magnitude", event.magnitude);
    if (!event.model.empty()) {
      e.set("model", event.model);
    }
    arr.push(std::move(e));
  }
  root.set("events", std::move(arr));
  return root;
}

std::string FaultPlan::describe() const {
  if (events.empty()) {
    return "(no faults)";
  }
  std::string out;
  for (const FaultEvent& event : events) {
    if (!out.empty()) {
      out += ", ";
    }
    out += faultKindName(event.kind);
    if (event.target != kAllTargets) {
      out += "[ost " + std::to_string(event.target) + "]";
    }
    if (!event.model.empty()) {
      out += "[" + event.model + "]";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, isLlmFault(event.kind) ? " p%.3g @calls %g-%g"
                                                          : " x%.3g @%g-%gs",
                  event.magnitude, event.begin, event.end);
    out += buf;
  }
  return out;
}

FaultPlan parseFaultSpec(std::string_view spec) {
  const std::string trimmed{util::trim(spec)};
  if (trimmed.empty()) {
    return {};
  }
  // A bare scenario name resolves to its canned plan.
  const auto& names = scenarioNames();
  if (std::find(names.begin(), names.end(), trimmed) != names.end()) {
    return scenarioByName(trimmed);
  }
  FaultPlan plan;
  for (const std::string& rawElement : util::split(trimmed, ',')) {
    const std::string element{util::trim(rawElement)};
    if (element.empty()) {
      continue;
    }
    if (element.rfind("seed:", 0) == 0) {
      plan.seed = static_cast<std::uint64_t>(
          parseNumber(element, std::string_view{element}.substr(5), "seed"));
      continue;
    }
    plan.events.push_back(parseElement(element));
  }
  return plan;
}

const std::vector<std::string>& scenarioNames() {
  static const std::vector<std::string> names{"degraded-ost", "flaky-network",
                                              "mds-storm",    "flaky-llm",
                                              "degrading-llm", "llm-outage"};
  return names;
}

FaultPlan scenarioByName(std::string_view name) {
  // Window times are calibrated against the benchmark workloads at the
  // default CLI scale (runs last tens of simulated seconds): every window
  // overlaps the bulk of the run without outliving short configurations.
  if (name == "degraded-ost") {
    // One OST at 30% capacity for most of the run, plus a lossy patch that
    // forces visible timeout/retry traffic. Tuning should still win.
    return FaultPlan{
        .seed = 0xDE6,
        .events = {{FaultKind::OstDegrade, 1, 1.0, 60.0, 0.3, ""},
                   {FaultKind::RpcDrop, kAllTargets, 2.0, 12.0, 0.2, ""}}};
  }
  if (name == "flaky-network") {
    // Sustained light loss with periodic stall windows: every RPC class
    // sees timeouts; nothing is down long enough to exhaust the budget.
    return FaultPlan{
        .seed = 0xF1A,
        .events = {{FaultKind::RpcDrop, kAllTargets, 0.0, 90.0, 0.05, ""},
                   {FaultKind::RpcStall, kAllTargets, 5.0, 10.0, 0.002, ""},
                   {FaultKind::RpcStall, kAllTargets, 20.0, 25.0, 0.002, ""}}};
  }
  if (name == "mds-storm") {
    // Competing metadata traffic: the MDS serves everything 6x slower for
    // a long window while measurements get noisier.
    return FaultPlan{
        .seed = 0x3D5,
        .events = {{FaultKind::MdsOverload, kAllTargets, 1.0, 45.0, 6.0, ""},
                   {FaultKind::NoiseSpike, kAllTargets, 0.0, 45.0, 3.0, ""}}};
  }
  // The LLM scenarios' windows are call indices; a tuning session makes a
  // few dozen model calls, so 0-999 means "the whole session".
  if (name == "flaky-llm") {
    // Every failure mode at moderate rates. Per-call retry absorbs the
    // transport faults (chance all retries fail ~ p^4) and the sanitizer
    // absorbs the content faults: sessions stay on the primary rung.
    return FaultPlan{
        .seed = 0xF1B,
        .events = {{FaultKind::LlmTimeout, kAllTargets, 0.0, 999.0, 0.15, ""},
                   {FaultKind::LlmRateLimit, kAllTargets, 0.0, 999.0, 0.1, ""},
                   {FaultKind::LlmTruncated, kAllTargets, 0.0, 999.0, 0.1, ""},
                   {FaultKind::LlmMalformed, kAllTargets, 0.0, 999.0, 0.1, ""},
                   {FaultKind::LlmHallucinatedKnob, kAllTargets, 0.0, 999.0, 0.25, ""},
                   {FaultKind::LlmOutOfRange, kAllTargets, 0.0, 999.0, 0.25, ""},
                   {FaultKind::LlmStaleAnalysis, kAllTargets, 0.0, 999.0, 0.2, ""}}};
  }
  if (name == "degrading-llm") {
    // The premium primary model degrades into a hard outage after a few
    // calls while cheaper models stay healthy: the circuit breaker trips
    // and the session lands on the fallback-model rung.
    return FaultPlan{
        .seed = 0xDE9,
        .events = {{FaultKind::LlmTimeout, kAllTargets, 1.0, 2.0, 0.5, "claude"},
                   {FaultKind::LlmTimeout, kAllTargets, 2.0, 999.0, 1.0, "claude"}}};
  }
  if (name == "llm-outage") {
    // Total provider outage after the opening calls: every model times out
    // forever, both breakers trip, and the session must finish on the
    // rule-based baseline rung without wedging.
    return FaultPlan{
        .seed = 0x0A7,
        .events = {{FaultKind::LlmTimeout, kAllTargets, 1.0, 999.0, 1.0, ""}}};
  }
  throw FaultSpecError("unknown fault scenario '" + std::string{name} +
                       "' (available: " + util::join(scenarioNames(), ", ") + ")");
}

}  // namespace stellar::faults
