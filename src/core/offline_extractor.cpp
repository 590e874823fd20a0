#include "core/offline_extractor.hpp"

#include <algorithm>
#include <map>

#include "manual/manual_text.hpp"
#include "util/expr.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace stellar::core {

namespace {

/// The text of one parameter's section as found inside a retrieved chunk,
/// or empty if the chunk does not contain (enough of) it.
std::string sectionFromChunk(const std::string& chunkText, const std::string& marker) {
  const auto begin = chunkText.find(marker);
  if (begin == std::string::npos) {
    return {};
  }
  // The section ends at the next parameter marker or the chunk end.
  auto end = chunkText.find("Parameter: ", begin + marker.size());
  if (end == std::string::npos) {
    end = chunkText.size();
  }
  return chunkText.substr(begin, end - begin);
}

/// Pulls "Label: value" out of the section; empty if absent.
std::string fieldLine(const std::string& section, const std::string& label) {
  const auto pos = section.find(label + ": ");
  if (pos == std::string::npos) {
    return {};
  }
  const auto start = pos + label.size() + 2;
  const auto eol = section.find('\n', start);
  return std::string{util::trim(
      section.substr(start, eol == std::string::npos ? std::string::npos : eol - start))};
}

/// The prose between the Exposure line and the Default line — the
/// parameter's definition + I/O impact statement.
std::string proseOf(const std::string& section) {
  const auto exposure = section.find("Exposure: ");
  const auto defaults = section.find("Default: ");
  if (exposure == std::string::npos || defaults == std::string::npos ||
      defaults <= exposure) {
    return {};
  }
  const auto bodyStart = section.find('\n', exposure);
  if (bodyStart == std::string::npos) {
    return {};
  }
  return std::string{util::trim(section.substr(bodyStart, defaults - bodyStart))};
}

/// Strips a trailing unit from "8 RPCs" / "32 MiB" and parses the number.
std::int64_t leadingInt(const std::string& text, std::int64_t fallback) {
  const auto words = util::splitWhitespace(text);
  if (words.empty()) {
    return fallback;
  }
  try {
    return std::stoll(words[0]);
  } catch (const std::exception&) {
    return fallback;
  }
}

/// The impact judgment the extraction model makes from the retrieved prose
/// (§4.2.2 "selecting important parameters"): the manual's authors state
/// performance relevance explicitly, and the model keys on that.
bool highImpactFromProse(const std::string& prose) {
  if (util::containsIgnoreCase(prose, "directly affects")) {
    return true;
  }
  if (util::containsIgnoreCase(prose, "diagnostic") ||
      util::containsIgnoreCase(prose, "does not improve") ||
      util::containsIgnoreCase(prose, "format time") ||
      util::containsIgnoreCase(prose, "housekeeping") ||
      util::containsIgnoreCase(prose, "failover detection")) {
    return false;
  }
  // Ambiguous prose defaults to keeping the parameter (cheaper to tune one
  // extra knob than to miss an important one).
  return true;
}

bool binaryFromSection(const std::string& defaultLine, const std::string& minExpr,
                       const std::string& maxExpr) {
  if (util::containsIgnoreCase(defaultLine, "boolean")) {
    return true;
  }
  return minExpr == "0" && maxExpr == "1";
}

/// sharedExtraction's store. The pipeline runs under the lock, so callers
/// that race on a new key wait for its one run instead of repeating it;
/// map nodes never move, so handed-out references stay valid.
class ExtractionCache {
 public:
  const ExtractionResult& get(const manual::SystemFacts& facts, bool& ranPipeline) {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(facts);
    ranPipeline = it == entries_.end();
    if (ranPipeline) {
      it = entries_.emplace(facts, OfflineExtractor{}.run(facts)).first;
    }
    return it->second;
  }

 private:
  util::Mutex mutex_;
  std::map<manual::SystemFacts, ExtractionResult> entries_ STELLAR_GUARDED_BY(mutex_);
};

}  // namespace

const ExtractedParam* ExtractionResult::find(std::string_view name) const {
  for (const ExtractedParam& p : tunables) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

double ExtractionResult::precision() const {
  if (tunables.empty()) {
    return 0.0;
  }
  const auto truth = manual::groundTruthTunables();
  std::size_t hits = 0;
  for (const ExtractedParam& p : tunables) {
    if (std::find(truth.begin(), truth.end(), p.name) != truth.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(tunables.size());
}

double ExtractionResult::recall() const {
  const auto truth = manual::groundTruthTunables();
  if (truth.empty()) {
    return 0.0;
  }
  std::size_t hits = 0;
  for (const std::string& name : truth) {
    if (find(name) != nullptr) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

OfflineExtractor::OfflineExtractor(ExtractorOptions options) : opts_(std::move(options)) {}

ExtractionResult OfflineExtractor::run(const manual::SystemFacts& facts,
                                       llm::TokenMeter* meter) const {
  ExtractionResult result;

  // 1. Build the vector index over the manual.
  rag::VectorIndex index;
  rag::ChunkerOptions chunkOpts;
  chunkOpts.chunkTokens = opts_.chunkTokens;
  chunkOpts.overlapTokens = opts_.overlapTokens;
  index.buildFromDocument(manual::fullManualText(), chunkOpts);
  result.chunksIndexed = index.size();

  // 2. Candidates from the /proc exposure list; rough writability filter.
  for (const manual::ParamFact& fact : manual::allParamFacts()) {
    if (!fact.writable) {
      result.filteredNotWritable.push_back(fact.name);
      continue;
    }

    // 3. Retrieval with the paper's question template.
    const std::string question = "How do I use the parameter " + fact.name + "?";
    const auto retrieved = index.query(question, opts_.topK);

    // The extraction model reads all retrieved chunks together, so chunks
    // that are adjacent in the document are stitched back into continuous
    // text before looking for the authoritative section — a section split
    // by a chunk boundary is still extractable as long as both halves were
    // retrieved.
    std::vector<const rag::RetrievedChunk*> ordered;
    ordered.reserve(retrieved.size());
    for (const rag::RetrievedChunk& hit : retrieved) {
      ordered.push_back(&hit);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const rag::RetrievedChunk* a, const rag::RetrievedChunk* b) {
                return a->chunk->index < b->chunk->index;
              });

    std::string section;
    double score = 0.0;
    const std::string marker = manual::parameterSectionMarker(fact.name);
    std::string stitched;
    double runScore = 0.0;
    std::size_t lastIndex = ~std::size_t{0};
    const auto tryRun = [&] {
      if (stitched.empty()) {
        return;
      }
      std::string candidate = sectionFromChunk(stitched, marker);
      // The authoritative section must carry the range lines to count as
      // sufficient documentation.
      if (section.empty() && !candidate.empty() &&
          candidate.find("Default: ") != std::string::npos &&
          candidate.find("Maximum: ") != std::string::npos) {
        section = std::move(candidate);
        score = runScore;
      }
      stitched.clear();
      runScore = 0.0;
    };
    for (const rag::RetrievedChunk* hit : ordered) {
      if (lastIndex != ~std::size_t{0} && hit->chunk->index != lastIndex + 1) {
        tryRun();
      }
      stitched += hit->chunk->text;
      stitched += "\n";
      runScore = std::max(runScore, hit->score);
      lastIndex = hit->chunk->index;
    }
    tryRun();

    if (meter != nullptr) {
      std::string prompt = question + "\n";
      for (const rag::RetrievedChunk& hit : retrieved) {
        prompt += hit.chunk->text;
      }
      meter->recordCall("extraction", prompt,
                        section.empty() ? "insufficient documentation" : section);
    }

    // 4. Sufficiency judgment: undocumented / unretrieved parameters are
    //    dropped (§4.2.2: absence from the manual implies lesser import).
    if (section.empty()) {
      result.filteredInsufficientDocs.push_back(fact.name);
      continue;
    }

    const std::string defaultLine = fieldLine(section, "Default");
    const std::string minExpr = fieldLine(section, "Minimum");
    const std::string maxExpr = fieldLine(section, "Maximum");
    const std::string prose = proseOf(section);

    // 5. Binary exclusion: on/off functional switches are user trade-offs.
    if (binaryFromSection(defaultLine, minExpr, maxExpr)) {
      result.filteredBinary.push_back(fact.name);
      continue;
    }

    // 6. Impact selection from the documented behaviour.
    if (!highImpactFromProse(prose)) {
      result.filteredLowImpact.push_back(fact.name);
      continue;
    }

    ExtractedParam param;
    param.name = fact.name;
    param.minExpr = minExpr;
    param.maxExpr = maxExpr;
    param.retrievalScore = score;

    llm::ParamKnowledge knowledge;
    knowledge.param = fact.name;
    knowledge.source = llm::KnowledgeSource::RagExtraction;
    knowledge.corruption = llm::CorruptionKind::None;
    knowledge.description = prose;
    knowledge.ioImpact = "";  // the prose already carries the impact statement
    knowledge.defaultValue = leadingInt(defaultLine, fact.defaultValue);
    // Resolve the extracted expressions against system facts + defaults of
    // referenced parameters (the online tuner re-resolves dependents).
    const auto resolver = [&facts](std::string_view name) -> std::optional<double> {
      if (const auto v = facts.resolve(name)) {
        return v;
      }
      if (const manual::ParamFact* other = manual::findParamFact(name)) {
        return static_cast<double>(other->defaultValue);
      }
      return std::nullopt;
    };
    knowledge.minValue = minExpr.empty()
                             ? 0
                             : static_cast<std::int64_t>(
                                   util::evaluateExpression(minExpr, resolver));
    knowledge.maxValue = maxExpr.empty()
                             ? knowledge.minValue
                             : static_cast<std::int64_t>(
                                   util::evaluateExpression(maxExpr, resolver));
    param.knowledge = std::move(knowledge);
    result.tunables.push_back(std::move(param));
  }

  return result;
}

const ExtractionResult& sharedExtraction(const manual::SystemFacts& facts,
                                         bool& ranPipeline) {
  static ExtractionCache cache;
  return cache.get(facts, ranPipeline);
}

}  // namespace stellar::core
