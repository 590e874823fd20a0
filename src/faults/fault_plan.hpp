// Deterministic fault plans.
//
// A FaultPlan is pure data: a seed plus a list of fault windows over
// *simulated* time. The paper tunes a live Lustre cluster where OSTs slow
// down, RPCs stall, and measurements are noisy; a plan reproduces that
// weather deterministically — the same (job, config, seed, plan) replays
// bit-for-bit, which is what makes resilience testable (ISSUE 2).
//
// Event taxonomy (see DESIGN.md "Fault model"):
//   ost degrade   capacity multiplier in (0, 1]; service times scale 1/m
//   ost outage    target unreachable; client RPCs time out and retry
//   mds overload  metadata service cost multiplier >= 1
//   rpc drop      per-delivery-attempt loss probability in [0, 1)
//   rpc stall     extra one-way delivery delay, seconds
//   noise spike   measurement-noise sigma multiplier >= 1
//
// LLM agent-layer faults (ISSUE 7) share the same plan/grammar but live at
// the inference boundary (src/llm/LlmFaultModel), not the simulator: their
// windows count *model calls*, not sim seconds, and their magnitudes are
// per-call probabilities in [0, 1]. FaultInjector ignores them entirely, so
// a plan containing only LLM faults leaves simulator runs bit-identical to
// fault-free (the ML-FAULTFREE law keeps holding).
//
//   llm timeout            call exceeds its deadline; no response
//   llm rate-limit         backpressure rejection; retry after backoff
//   llm truncated          response cut off mid-action; unusable
//   llm malformed          tool-call JSON does not parse
//   llm hallucinated-knob  action names a parameter outside the spec
//   llm out-of-range       action value escapes the documented range
//   llm stale-analysis     analysis answer reflects an outdated run
//
// Plans are built programmatically, parsed from a compact spec string
// (the CLI's --faults=SPEC), or pulled from the canned scenarios used by
// bench/fault_resilience.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace stellar::faults {

enum class FaultKind : std::uint8_t {
  OstDegrade,
  OstOutage,
  MdsOverload,
  RpcDrop,
  RpcStall,
  NoiseSpike,
  // Agent-layer kinds; windows are call indices, magnitudes probabilities.
  LlmTimeout,
  LlmRateLimit,
  LlmTruncated,
  LlmMalformed,
  LlmHallucinatedKnob,
  LlmOutOfRange,
  LlmStaleAnalysis,
};

[[nodiscard]] const char* faultKindName(FaultKind kind) noexcept;

/// True for the agent-layer kinds handled by llm::LlmFaultModel (and
/// skipped by the simulator-side FaultInjector).
[[nodiscard]] bool isLlmFault(FaultKind kind) noexcept;

/// Target value meaning "every OST" (and the only value meaningful for
/// the non-OST kinds).
inline constexpr std::int32_t kAllTargets = -1;

struct FaultEvent {
  FaultKind kind = FaultKind::OstDegrade;
  std::int32_t target = kAllTargets;  ///< OST index, or kAllTargets
  double begin = 0.0;                 ///< window [begin, end) in sim seconds
                                      ///< (LLM kinds: in call indices)
  double end = 0.0;
  double magnitude = 1.0;             ///< kind-specific, see taxonomy above
  /// LLM kinds only: case-sensitive substring filter on the model name;
  /// empty matches every model. Ignored by the simulator-side kinds.
  std::string model;

  [[nodiscard]] bool operator==(const FaultEvent&) const = default;
};

/// Thrown on malformed specs or out-of-range event parameters. Recoverable
/// by design: the CLI reports it and exits cleanly instead of aborting.
class FaultSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultPlan {
  /// Drives drop-window sampling, mixed with the run seed so distinct runs
  /// under one plan see independent (but replayable) loss patterns.
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Measurement-noise sigma multiplier (>= 1) for a run spanning
  /// [0, wallSeconds): 1 plus the overlap-weighted excess of every
  /// noise-spike window.
  [[nodiscard]] double noiseMultiplierOver(double wallSeconds) const noexcept;

  /// Throws FaultSpecError when any event is malformed (inverted window,
  /// kind-specific magnitude out of range).
  void validate() const;

  [[nodiscard]] util::Json toJson() const;
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] bool operator==(const FaultPlan&) const = default;
};

/// Parses a comma-separated event list, e.g.
///   "ost:2:degrade:0.3@10-40,rpc:drop:0.1@0-20,seed:7"
/// Grammar per element:
///   ost:<idx|*>:degrade:<mult>@<begin>-<end>
///   ost:<idx|*>:outage@<begin>-<end>
///   mds:overload:<mult>@<begin>-<end>
///   rpc:drop:<prob>@<begin>-<end>
///   rpc:stall:<seconds>@<begin>-<end>
///   noise:spike:<mult>@<begin>-<end>
///   llm:<kind>:<prob>[:<model|*>]@<begin>-<end>
///     with <kind> one of timeout, ratelimit, truncate, malformed,
///     bad-knob, bad-value, stale; the window counts model calls and the
///     optional <model> is a substring filter on the model name
///   seed:<n>
/// A bare scenario name (see scenarioNames) is also accepted. Throws
/// FaultSpecError with the offending element quoted.
[[nodiscard]] FaultPlan parseFaultSpec(std::string_view spec);

/// Canned scenarios used by bench/fault_resilience and the CLI.
[[nodiscard]] const std::vector<std::string>& scenarioNames();
[[nodiscard]] FaultPlan scenarioByName(std::string_view name);

}  // namespace stellar::faults
