// Corpus-driven fuzz harness for every hand-rolled parser in the repo.
//
// The contract under test is narrow and absolute: for ANY input bytes, a
// parser either returns a value or throws a documented exception type —
// it never crashes, never corrupts memory (ASan/UBSan enforce that in the
// sanitizer CI job), and never fails to terminate. The harness replays a
// committed corpus of nasty inputs (tests/testkit/corpus/) and then
// mutates corpus entries with seeded byte-level edits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stellar::testkit {

enum class FuzzTarget : std::uint8_t {
  Json,       ///< util::Json::parse
  FaultSpec,  ///< faults::parseFaultSpec
  Rules,      ///< rules::RuleSet::fromJson over parsed JSON
  Campaign,   ///< service::CampaignSpec / SubmitOptions request documents
  Journal,    ///< exp::ExperienceStore JSONL journal loading
  SessionJournal,  ///< core::SessionJournal loading (stellard's resume record)
};

[[nodiscard]] const char* fuzzTargetName(FuzzTarget target) noexcept;

/// Maps a corpus subdirectory name ("json", "faultspec", "rules",
/// "campaign", "journal", "session-journal") to its target; returns false
/// for unknown names.
[[nodiscard]] bool fuzzTargetByName(std::string_view name, FuzzTarget& out) noexcept;

struct FuzzFinding {
  FuzzTarget target = FuzzTarget::Json;
  std::string input;    ///< the offending bytes (possibly mutated)
  std::string problem;  ///< what escaped (exception type/what, or budget)
};

/// Feeds one input to one parser. Returns true when the parser behaved
/// (accepted, or threw its documented error type); records a finding
/// otherwise. Inputs larger than 4 MiB are truncated — parser complexity
/// must stay linear, and the no-hang budget assumes bounded input.
bool fuzzOne(FuzzTarget target, std::string_view input,
             std::vector<FuzzFinding>* findings);

/// Replays every file under `corpusDir` (subdirectories name their
/// target, e.g. corpusDir/json/deep_nesting.json), then runs `mutations`
/// seeded byte-level mutations of each entry. Returns all findings.
[[nodiscard]] std::vector<FuzzFinding> fuzzCorpus(const std::string& corpusDir,
                                                  std::uint64_t seed,
                                                  int mutationsPerEntry = 32);

/// Number of corpus files visited by the last fuzzCorpus call on this
/// thread (0 when the directory was missing — callers treat that as a
/// configuration error, not a clean pass).
[[nodiscard]] std::size_t lastCorpusFileCount() noexcept;

}  // namespace stellar::testkit
