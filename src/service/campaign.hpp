// Campaigns: fleet-scale tuning as a thin client of TuningService.
//
// A declarative campaign spec (workloads x seeds x model profiles x optional
// fault scenarios) expands into independent tuning *cells*. runCampaign
// submits every cell to a TuningService under tenant `campaign`, drains,
// commits, and folds the session results into one aggregate document.
//
// Everything else is the service's (DESIGN.md §5e, §9): the worker pool,
// the session journals (`<store>.sessions/`, one per cell, whose final line
// carries the finished cell's result), the tenant shard
// (`<store>.tenant-campaign`, whose records carry their runs' warm-start
// verdicts), the immutable recall snapshot and the commit. A campaign
// therefore inherits the service's laws:
//   - a cell's result is independent of worker count and dispatch order;
//   - a campaign cut short by ServiceOptions::maxFreshSessions resumes from
//     the session journals, and the resumed aggregate document is
//     byte-identical to an uninterrupted run's;
//   - the store commit waits until no cell of the run is interrupted.
// One rule is the campaign's own: a cell never recalls a record filed under
// one of its spec's cell keys (ServiceOptions::recallExcludes), so a cell
// that re-runs cannot warm-start from its already-committed siblings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "util/json.hpp"

namespace stellar::service {

/// One point of the campaign grid.
struct CampaignCell {
  std::string workload;
  std::uint64_t seed = 1;
  std::string model;
  std::string faults;  ///< fault spec/scenario; "" = clean weather

  /// Identity of the cell inside the aggregate document (cells sort by it).
  [[nodiscard]] std::string key() const;
};

/// Declarative campaign description (JSON-loadable).
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<std::string> workloads;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> models = {"claude-3.7-sonnet"};
  /// Fault specs crossed into the grid; the default single "" keeps the
  /// grid fault-free without special-casing.
  std::vector<std::string> faultScenarios = {""};
  double scale = 0.05;     ///< workload volume scale (campaigns favor small)
  std::uint32_t ranks = 50;
  bool warmStart = true;   ///< recall prior experience for each cell

  [[nodiscard]] std::vector<CampaignCell> cells() const;

  [[nodiscard]] util::Json toJson() const;
  /// Throws util::JsonError on malformed specs.
  [[nodiscard]] static CampaignSpec fromJson(const util::Json& json);
  [[nodiscard]] static CampaignSpec loadFile(const std::string& path);
};

/// Outcome of one completed (fresh or journal-replayed) cell.
struct CellResult {
  std::string key;
  std::string workload;
  std::uint64_t seed = 0;
  std::string model;
  std::string faults;
  double defaultSeconds = 0.0;
  double bestSeconds = 0.0;
  double speedup = 0.0;
  std::size_t attempts = 0;
  std::size_t iterationsToBest = 0;
  bool warmStarted = false;
  std::string endReason;
  bool failed = false;     ///< the cell's run failed; error carries the message
  std::string error;

  [[nodiscard]] util::Json toJson() const;
};

struct CampaignResult {
  /// All completed cells, sorted by key (deterministic across resumes).
  std::vector<CellResult> cells;
  std::size_t executed = 0;  ///< engine runs dispatched in this invocation
  std::size_t skipped = 0;   ///< cells replayed from their session journals
  bool complete = false;     ///< no cell of the spec was interrupted

  /// The campaign's one machine-readable output document. Deliberately
  /// excludes executed/skipped (which differ between an interrupted and an
  /// uninterrupted run) so a resumed campaign's document is byte-identical.
  [[nodiscard]] util::Json aggregateJson(const CampaignSpec& spec) const;
};

/// Runs (or resumes) `spec` on a TuningService built from `options`. The
/// admission bounds (global, and the `campaign` tenant's) are set from the
/// cell count, and the spec's cell keys are added to recallExcludes.
[[nodiscard]] CampaignResult runCampaign(const CampaignSpec& spec,
                                         ServiceOptions options);

}  // namespace stellar::service
