// Tuning Rule Sets (§4.4 of the paper).
//
// A rule couples a parameter with guidance and the I/O-behaviour context it
// was learned in. Rules are serialized as the JSON structure the paper
// enforces ({Parameter, Rule Description, Tuning Context} objects) plus
// machine-actionable fields this reproduction's Tuning Agent consumes.
// Merging resolves conflicts exactly as §4.4.2 specifies: direct
// contradictions remove both rules; near-duplicates with slightly different
// guidance are kept as alternatives; alternatives that produce a negative
// outcome in a later run are dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace stellar::rules {

/// Workload feature signature: the "Tuning Context" of a rule, and what new
/// workloads are matched against. All shares are in [0, 1].
struct WorkloadContext {
  double metaOpShare = 0.0;      ///< metadata ops / all ops
  double readShare = 0.0;        ///< bytes read / bytes moved
  double sequentialShare = 0.0;  ///< sequential accesses / accesses
  double sharedFileShare = 0.0;  ///< bytes to multi-rank files / bytes
  double smallFileShare = 0.0;   ///< files under 1 MiB / files
  std::uint64_t dominantAccessSize = 0;  ///< bytes
  std::uint64_t fileCount = 0;
  std::uint64_t totalBytes = 0;

  /// Similarity in [0, 1]; 1 = same I/O character. Shares compare
  /// linearly; access size, file count, and volume compare on log scales.
  [[nodiscard]] double similarity(const WorkloadContext& other) const;

  /// Human-readable rendering used inside rule JSON and transcripts.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] util::Json toJson() const;
  [[nodiscard]] static WorkloadContext fromJson(const util::Json& json);
};

/// Machine-actionable recommendation the guidance text encodes.
enum class Direction {
  Increase,  ///< raise substantially from the current value
  Decrease,  ///< lower substantially from the current value
  SetValue,  ///< set a specific value
  SetMax,    ///< push to the parameter's valid maximum
  SetMin,    ///< push to the parameter's valid minimum
};

[[nodiscard]] const char* directionName(Direction d) noexcept;
[[nodiscard]] std::optional<Direction> directionFromName(std::string_view name) noexcept;

struct Rule {
  std::string parameter;
  std::string description;  ///< general guidance, no application names (§4.4.1)
  WorkloadContext context;
  Direction direction = Direction::Increase;
  std::int64_t value = 0;  ///< only meaningful for SetValue
  /// Positive outcomes observed (confidence); starts at 1 when learned.
  std::int32_t confirmations = 1;
  /// Marked when a merge found a near-duplicate: alternatives are tried
  /// and pruned by outcome (§4.4.2).
  bool alternative = false;

  /// True when both rules recommend incompatible adjustments for the same
  /// parameter (the §4.4.2 "direct contradiction" case).
  [[nodiscard]] bool contradicts(const Rule& other) const;

  [[nodiscard]] util::Json toJson() const;
  [[nodiscard]] static Rule fromJson(const util::Json& json);
};

class RuleSet {
 public:
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }

  void add(Rule rule) { rules_.push_back(std::move(rule)); }

  /// Rules applicable to `context` (similarity >= threshold), most similar
  /// first; optionally restricted to one parameter.
  [[nodiscard]] std::vector<const Rule*> match(const WorkloadContext& context,
                                               double threshold = 0.7,
                                               std::string_view parameter = {}) const;

  /// Merges newly learned rules into this set with the paper's conflict
  /// resolution. Returns a human-readable merge report (for transcripts).
  std::string merge(const std::vector<Rule>& newRules, double contextThreshold = 0.8);

  /// Outcome pruning: drops rules for `parameter` matching `context` whose
  /// direction equals `direction` (a tried-and-failed alternative).
  /// Returns how many rules were dropped.
  std::size_t dropNegative(std::string_view parameter, const WorkloadContext& context,
                           Direction direction, double contextThreshold = 0.8);

  [[nodiscard]] util::Json toJson() const;
  [[nodiscard]] static RuleSet fromJson(const util::Json& json);

  /// Persistence across sessions: the global Rule Set is the asset the
  /// paper accumulates over a platform's lifetime, so it round-trips to a
  /// JSON file. `saveFile` replaces the file atomically (util::replaceFile),
  /// so a kill mid-save leaves the previous set whole; `loadFile` throws on
  /// unreadable/malformed input.
  void saveFile(const std::string& path) const;
  [[nodiscard]] static RuleSet loadFile(const std::string& path);

 private:
  std::vector<Rule> rules_;
};

}  // namespace stellar::rules
