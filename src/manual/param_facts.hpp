// Ground-truth parameter database for the simulated file system.
//
// This plays the role reality plays for Lustre: the *actual* semantics of
// every parameter the file system exposes under /proc. The offline
// RAG extraction (§4.2) must rediscover the 13 high-impact tunables from
// this larger universe using only the generated manual text; comparing its
// output against these facts gives the extraction-quality table, and
// corrupting these facts per model profile gives the hallucination
// experiments (Fig. 2, Fig. 8).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stellar::manual {

enum class ParamCategory {
  PerformanceTunable,  ///< the 13 targets: runtime-tunable, high impact
  BinaryTradeoff,      ///< on/off functional switches (e.g. checksums)
  NotRuntime,          ///< fixed at format/mount time
  NotPerformance,      ///< runtime-writable but not performance-relevant
  Undocumented,        ///< writable but absent from the manual
};

struct ParamFact {
  std::string name;       ///< canonical dotted name ("osc.max_rpcs_in_flight")
  std::string procPath;   ///< /proc or /sys exposure
  bool writable = true;
  /// True when an unprivileged user can set the parameter (per-file layout
  /// via `lfs setstripe`); client /proc knobs require root — the §5.6
  /// deployment constraint this reproduction's user-scope mode models.
  bool userAccessible = false;
  ParamCategory category = ParamCategory::PerformanceTunable;
  /// Ground-truth definition (what the parameter actually does).
  std::string description;
  /// Ground-truth I/O impact statement (direction + which workloads).
  std::string ioImpact;
  /// Valid range as expressions over system facts / other parameters
  /// (the dependent-range mechanism of §4.2.2). Empty = no bound.
  std::string minExpr;
  std::string maxExpr;
  std::int64_t defaultValue = 0;
  std::string unit;
};

/// The complete parameter universe (13 tunables + decoy categories).
[[nodiscard]] const std::vector<ParamFact>& allParamFacts();

/// Lookup by canonical name.
[[nodiscard]] const ParamFact* findParamFact(std::string_view name);

/// Names of the 13 ground-truth performance tunables (= the ideal
/// extraction output).
[[nodiscard]] std::vector<std::string> groundTruthTunables();

/// System facts used to resolve dependent range expressions. Ordered so a
/// whole value can key a map (the process-wide extraction cache, src/core).
struct SystemFacts {
  std::int64_t clientRamMb = 200704;
  std::int64_t ostCount = 5;
  std::int64_t cpuCores = 10;

  auto operator<=>(const SystemFacts&) const = default;

  /// Resolver usable with util::Expr (names: client_ram_mb, ost_count,
  /// cpu_cores, plus any parameter's current value via the config hook).
  [[nodiscard]] std::optional<double> resolve(std::string_view name) const;
};

}  // namespace stellar::manual
