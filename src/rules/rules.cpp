#include "rules/rules.hpp"

#include <algorithm>
#include <cmath>

#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace stellar::rules {

namespace {

double logCloseness(double a, double b, double decadesToZero) {
  // 1 when equal, decaying linearly with log10 distance.
  const double la = std::log10(std::max(1.0, a));
  const double lb = std::log10(std::max(1.0, b));
  return std::max(0.0, 1.0 - std::fabs(la - lb) / decadesToZero);
}

}  // namespace

double WorkloadContext::similarity(const WorkloadContext& other) const {
  // Weighted mix: the access pattern (sequentiality, dominant transfer
  // size) carries the most weight because it decides which knob guidance
  // transfers — stripe/RPC/readahead advice learned on a sequential
  // large-transfer workload actively hurts a random small-transfer one,
  // so those two must land below the 0.7 match threshold. The remaining
  // shares define the workload's character; the scale features refine it.
  // Weights sum to 1.
  double score = 0.0;
  score += 0.18 * (1.0 - std::fabs(metaOpShare - other.metaOpShare));
  score += 0.10 * (1.0 - std::fabs(readShare - other.readShare));
  score += 0.28 * (1.0 - std::fabs(sequentialShare - other.sequentialShare));
  score += 0.10 * (1.0 - std::fabs(sharedFileShare - other.sharedFileShare));
  score += 0.10 * (1.0 - std::fabs(smallFileShare - other.smallFileShare));
  score += 0.18 * logCloseness(static_cast<double>(dominantAccessSize),
                               static_cast<double>(other.dominantAccessSize), 4.0);
  score += 0.03 * logCloseness(static_cast<double>(fileCount),
                               static_cast<double>(other.fileCount), 5.0);
  score += 0.03 * logCloseness(static_cast<double>(totalBytes),
                               static_cast<double>(other.totalBytes), 6.0);
  return std::clamp(score, 0.0, 1.0);
}

std::string WorkloadContext::describe() const {
  std::string out;
  out += metaOpShare > 0.5 ? "metadata-dominated workload" : "data-dominated workload";
  out += "; " + util::formatDouble(readShare * 100, 0) + "% of bytes read";
  out += "; " + util::formatDouble(sequentialShare * 100, 0) + "% sequential accesses";
  out += "; " + util::formatDouble(sharedFileShare * 100, 0) + "% of bytes to shared files";
  out += "; " + util::formatDouble(smallFileShare * 100, 0) + "% small files";
  out += "; dominant access size " + util::formatBytes(dominantAccessSize);
  out += "; " + std::to_string(fileCount) + " files";
  out += "; " + util::formatBytes(totalBytes) + " moved";
  return out;
}

util::Json WorkloadContext::toJson() const {
  util::Json obj = util::Json::makeObject();
  obj.set("meta_op_share", util::Json{metaOpShare});
  obj.set("read_share", util::Json{readShare});
  obj.set("sequential_share", util::Json{sequentialShare});
  obj.set("shared_file_share", util::Json{sharedFileShare});
  obj.set("small_file_share", util::Json{smallFileShare});
  obj.set("dominant_access_size", util::Json{static_cast<std::int64_t>(dominantAccessSize)});
  obj.set("file_count", util::Json{static_cast<std::int64_t>(fileCount)});
  obj.set("total_bytes", util::Json{static_cast<std::int64_t>(totalBytes)});
  return obj;
}

WorkloadContext WorkloadContext::fromJson(const util::Json& json) {
  WorkloadContext ctx;
  ctx.metaOpShare = json.getNumber("meta_op_share");
  ctx.readShare = json.getNumber("read_share");
  ctx.sequentialShare = json.getNumber("sequential_share");
  ctx.sharedFileShare = json.getNumber("shared_file_share");
  ctx.smallFileShare = json.getNumber("small_file_share");
  ctx.dominantAccessSize = json.getInteger<std::uint64_t>("dominant_access_size", 0);
  ctx.fileCount = json.getInteger<std::uint64_t>("file_count", 0);
  ctx.totalBytes = json.getInteger<std::uint64_t>("total_bytes", 0);
  return ctx;
}

const char* directionName(Direction d) noexcept {
  switch (d) {
    case Direction::Increase: return "increase";
    case Direction::Decrease: return "decrease";
    case Direction::SetValue: return "set-value";
    case Direction::SetMax: return "set-max";
    case Direction::SetMin: return "set-min";
  }
  return "?";
}

std::optional<Direction> directionFromName(std::string_view name) noexcept {
  if (name == "increase") return Direction::Increase;
  if (name == "decrease") return Direction::Decrease;
  if (name == "set-value") return Direction::SetValue;
  if (name == "set-max") return Direction::SetMax;
  if (name == "set-min") return Direction::SetMin;
  return std::nullopt;
}

namespace {

bool opposite(Direction a, Direction b) {
  const auto upward = [](Direction d) {
    return d == Direction::Increase || d == Direction::SetMax;
  };
  const auto downward = [](Direction d) {
    return d == Direction::Decrease || d == Direction::SetMin;
  };
  return (upward(a) && downward(b)) || (downward(a) && upward(b));
}

}  // namespace

bool Rule::contradicts(const Rule& other) const {
  if (parameter != other.parameter) {
    return false;
  }
  if (opposite(direction, other.direction)) {
    return true;
  }
  // Specific values more than 4x apart count as contradictory guidance.
  if (direction == Direction::SetValue && other.direction == Direction::SetValue) {
    const double a = static_cast<double>(std::max<std::int64_t>(1, value));
    const double b = static_cast<double>(std::max<std::int64_t>(1, other.value));
    return a / b > 4.0 || b / a > 4.0;
  }
  return false;
}

util::Json Rule::toJson() const {
  // The paper's enforced structure (§4.4.1) plus actionable fields.
  util::Json obj = util::Json::makeObject();
  obj.set("Parameter", util::Json{parameter});
  obj.set("Rule Description", util::Json{description});
  obj.set("Tuning Context", context.toJson());
  obj.set("direction", util::Json{directionName(direction)});
  obj.set("value", util::Json{value});
  obj.set("confirmations", util::Json{static_cast<std::int64_t>(confirmations)});
  obj.set("alternative", util::Json{alternative});
  return obj;
}

Rule Rule::fromJson(const util::Json& json) {
  Rule rule;
  rule.parameter = json.at("Parameter").asString();
  rule.description = json.at("Rule Description").asString();
  rule.context = WorkloadContext::fromJson(json.at("Tuning Context"));
  const auto dir = directionFromName(json.getString("direction", "increase"));
  if (!dir) {
    throw util::JsonError("unknown rule direction");
  }
  rule.direction = *dir;
  rule.value = json.getInteger<std::int64_t>("value", 0);
  rule.confirmations = json.getInteger<std::int32_t>("confirmations", 1);
  rule.alternative = json.getBool("alternative", false);
  return rule;
}

std::vector<const Rule*> RuleSet::match(const WorkloadContext& context, double threshold,
                                        std::string_view parameter) const {
  std::vector<std::pair<double, const Rule*>> scored;
  for (const Rule& rule : rules_) {
    if (!parameter.empty() && rule.parameter != parameter) {
      continue;
    }
    const double sim = rule.context.similarity(context);
    if (sim >= threshold) {
      scored.emplace_back(sim, &rule);
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<const Rule*> out;
  out.reserve(scored.size());
  for (const auto& [sim, rule] : scored) {
    (void)sim;
    out.push_back(rule);
  }
  return out;
}

std::string RuleSet::merge(const std::vector<Rule>& newRules, double contextThreshold) {
  std::string report;
  for (const Rule& incoming : newRules) {
    bool dropIncoming = false;
    for (auto it = rules_.begin(); it != rules_.end();) {
      Rule& existing = *it;
      const bool sameParam = existing.parameter == incoming.parameter;
      const bool sameContext =
          existing.context.similarity(incoming.context) >= contextThreshold;
      if (sameParam && sameContext) {
        if (existing.contradicts(incoming)) {
          // §4.4.2: equal context, opposite guidance — cannot tell which is
          // correct, remove both.
          report += "contradiction on " + incoming.parameter + ": removed both\n";
          it = rules_.erase(it);
          dropIncoming = true;
          continue;
        }
        if (existing.direction == incoming.direction &&
            existing.value == incoming.value) {
          // Same guidance re-learned: reinforce instead of duplicating.
          ++existing.confirmations;
          report += "reinforced " + incoming.parameter + " (confirmations " +
                    std::to_string(existing.confirmations) + ")\n";
          dropIncoming = true;
          ++it;
          continue;
        }
        // Slightly different guidance: keep both as alternatives to be
        // tried and outcome-pruned later.
        existing.alternative = true;
        report += "alternative guidance recorded for " + incoming.parameter + "\n";
        ++it;
        continue;
      }
      ++it;
    }
    if (!dropIncoming) {
      Rule copy = incoming;
      // Mark as alternative if a same-param same-context sibling remains.
      for (const Rule& existing : rules_) {
        if (existing.parameter == copy.parameter &&
            existing.context.similarity(copy.context) >= contextThreshold) {
          copy.alternative = true;
        }
      }
      rules_.push_back(std::move(copy));
    }
  }
  return report;
}

std::size_t RuleSet::dropNegative(std::string_view parameter,
                                  const WorkloadContext& context, Direction direction,
                                  double contextThreshold) {
  const std::size_t before = rules_.size();
  std::erase_if(rules_, [&](const Rule& rule) {
    return rule.parameter == parameter && rule.direction == direction &&
           rule.context.similarity(context) >= contextThreshold;
  });
  return before - rules_.size();
}

util::Json RuleSet::toJson() const {
  util::Json arr = util::Json::makeArray();
  for (const Rule& rule : rules_) {
    arr.push(rule.toJson());
  }
  return arr;
}

RuleSet RuleSet::fromJson(const util::Json& json) {
  RuleSet set;
  for (const util::Json& item : json.asArray()) {
    set.add(Rule::fromJson(item));
  }
  return set;
}

void RuleSet::saveFile(const std::string& path) const {
  util::replaceFile(path, toJson().dump(2) + "\n");
}

RuleSet RuleSet::loadFile(const std::string& path) {
  try {
    return fromJson(util::Json::parse(util::readFile(path)));
  } catch (const util::JsonError& e) {
    throw util::JsonError("rules file '" + path + "': " + e.what());
  }
}

}  // namespace stellar::rules
