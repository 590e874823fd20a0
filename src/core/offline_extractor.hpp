// The offline RAG-based parameter extraction pipeline (§4.2, left half of
// Fig. 1): manual -> vector index -> per-candidate retrieval -> sufficiency
// judgment -> accurate descriptions with (possibly dependent) ranges ->
// binary exclusion -> impact selection.
//
// The pipeline is literal: candidates come from the /proc exposure list, a
// rough filter keeps writable ones, each is queried against the index with
// the paper's question template, and a parameter survives only if its
// authoritative manual section was actually retrieved — so extraction
// quality is a real function of the retrieval stack, measurable against
// the ground truth (bench/tab_extraction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llm/knowledge.hpp"
#include "llm/model_profile.hpp"
#include "llm/token_meter.hpp"
#include "manual/param_facts.hpp"
#include "rag/vector_index.hpp"

namespace stellar::core {

struct ExtractedParam {
  std::string name;
  /// Grounded knowledge assembled from the retrieved section.
  llm::ParamKnowledge knowledge;
  /// Range expressions exactly as extracted (evaluated online §4.2.2).
  std::string minExpr;
  std::string maxExpr;
  double retrievalScore = 0.0;

  bool operator==(const ExtractedParam&) const = default;
};

struct ExtractionResult {
  /// The final PFS Tunable Parameters handed to the Tuning Agent.
  std::vector<ExtractedParam> tunables;
  /// Filter provenance (each candidate lands in exactly one bucket).
  std::vector<std::string> filteredNotWritable;
  std::vector<std::string> filteredInsufficientDocs;
  std::vector<std::string> filteredBinary;
  std::vector<std::string> filteredLowImpact;
  std::size_t chunksIndexed = 0;

  [[nodiscard]] const ExtractedParam* find(std::string_view name) const;

  /// Precision/recall against manual::groundTruthTunables().
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;

  bool operator==(const ExtractionResult&) const = default;
};

struct ExtractorOptions {
  llm::ModelProfile model = llm::gpt4o();  ///< the paper uses GPT-4o here
  std::size_t topK = 20;                   ///< retrieved chunks per query
  std::size_t chunkTokens = 1024;
  std::size_t overlapTokens = 20;
};

class OfflineExtractor {
 public:
  explicit OfflineExtractor(ExtractorOptions options = {});

  /// Runs the full pipeline over the bundled manual. `meter`, when given,
  /// records the extraction LLM calls.
  [[nodiscard]] ExtractionResult run(const manual::SystemFacts& facts,
                                     llm::TokenMeter* meter = nullptr) const;

 private:
  ExtractorOptions opts_;
};

/// The default-options pipeline, run at most once per process for each
/// `facts` value: the extraction depends only on the manual and the
/// system, so every later caller, on any thread, reads the first run's
/// immutable result. Entries are never evicted. `ranPipeline` is set to
/// whether this call was the one that ran it.
[[nodiscard]] const ExtractionResult& sharedExtraction(const manual::SystemFacts& facts,
                                                       bool& ranPipeline);

}  // namespace stellar::core
