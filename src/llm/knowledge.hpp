// Parameter knowledge as an agent holds it — possibly hallucinated.
//
// §4.2.1/Fig. 2 of the paper: models asked about domain-specific parameters
// produce plausible but wrong definitions and ranges. This module makes
// that mechanism explicit: knowledge recalled from "pretrained memory" is
// the ground-truth fact corrupted with model-specific, deterministic
// probability; knowledge produced by the RAG extraction pipeline (src/core)
// is grounded and accurate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llm/model_profile.hpp"
#include "manual/param_facts.hpp"

namespace stellar::llm {

enum class KnowledgeSource { RagExtraction, ModelMemory };

enum class CorruptionKind {
  None,
  WrongRange,        ///< believed max/min off by a large factor
  WrongDefinition,   ///< description describes a different mechanism
  FlippedDirection,  ///< believed I/O impact points the wrong way
};

[[nodiscard]] const char* corruptionName(CorruptionKind kind) noexcept;

/// What an agent believes about one parameter.
struct ParamKnowledge {
  std::string param;
  std::string description;
  std::string ioImpact;
  std::int64_t minValue = 0;  ///< believed valid range (resolved numbers)
  std::int64_t maxValue = 0;
  std::int64_t defaultValue = 0;
  KnowledgeSource source = KnowledgeSource::ModelMemory;
  CorruptionKind corruption = CorruptionKind::None;

  /// True when the description/impact reflect the real mechanism (the
  /// tuning heuristics consult this to decide whether the agent reasons
  /// from the true semantics or from the corrupted ones).
  [[nodiscard]] bool semanticallyAccurate() const noexcept {
    return corruption == CorruptionKind::None ||
           corruption == CorruptionKind::WrongRange;
  }
  [[nodiscard]] bool rangeAccurate() const noexcept {
    return corruption != CorruptionKind::WrongRange;
  }

  bool operator==(const ParamKnowledge&) const = default;
};

/// Recalls a fact from model memory: corrupted with probability
/// profile.hallucinationRate, deterministically per (model, param, salt).
[[nodiscard]] ParamKnowledge recallFromMemory(const manual::ParamFact& fact,
                                              const ModelProfile& profile,
                                              const manual::SystemFacts& facts,
                                              std::uint64_t salt = 0);

/// Grounded knowledge, as the RAG extraction emits it (always accurate;
/// ranges resolved against system facts).
[[nodiscard]] ParamKnowledge groundedKnowledge(const manual::ParamFact& fact,
                                               const manual::SystemFacts& facts);

/// Resolves a fact's min/max expressions to numbers using system facts and
/// the *default* values of referenced parameters.
struct ResolvedRange {
  std::int64_t min = 0;
  std::int64_t max = 0;
};
[[nodiscard]] ResolvedRange resolveRange(const manual::ParamFact& fact,
                                         const manual::SystemFacts& facts);

}  // namespace stellar::llm
