// Deterministic text embedder: hashed TF-IDF vectors with cosine
// similarity. Stands in for OpenAI's text-embedding-3-large (§4.2.2) — it
// has the property that matters for the reproduction: chunks about a
// parameter score high for queries naming that parameter, and unrelated
// filler scores low.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace stellar::rag {

class HashedTfIdfEmbedder {
 public:
  explicit HashedTfIdfEmbedder(std::size_t dimensions = 512, std::uint64_t seed = 17);

  /// Learns document frequencies from the corpus (one string per chunk).
  void fit(const std::vector<std::string>& corpus);

  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }

  /// Embeds text into an L2-normalized vector. Usable before fit() (IDF
  /// defaults to 1), but retrieval quality comes from fitting first.
  [[nodiscard]] std::vector<float> embed(std::string_view text) const;

  /// Cosine similarity of two normalized embeddings.
  [[nodiscard]] static double cosine(const std::vector<float>& a,
                                     const std::vector<float>& b);

 private:
  [[nodiscard]] std::size_t slot(std::string_view term) const;
  [[nodiscard]] double idf(const std::string& term) const;

  std::size_t dims_;
  std::uint64_t seed_;
  std::size_t documents_ = 0;
  std::unordered_map<std::string, std::uint32_t> documentFrequency_;
};

}  // namespace stellar::rag
