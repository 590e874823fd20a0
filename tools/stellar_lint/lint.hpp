// stellar-lint: a repo-specific determinism & concurrency static-analysis
// pass (DESIGN.md §7).
//
// The simulator's headline guarantees — ML-DET/ML-SHARD bit-identity
// across replays and shards, KILL-RESUME byte-identical session replay,
// campaign resume — are dynamic properties: the testkit can only catch a
// hazard a seed happens to exercise. stellar-lint proves the *static*
// preconditions of those guarantees at build time: no wall-clock or
// platform-varying hashing in sim-critical code, no event ordering derived
// from unordered-container iteration, seeds threaded from options structs
// rather than ad-hoc literals, JSON accesses checked or defaulted, JSON
// numbers read into integers through the range-checked accessors, metric
// names registered in the one catalogue, and no exceptions thrown naked
// across the thread-pool task boundary.
//
// Deliberately token/AST-lite (a lexer plus brace/paren-aware scanners,
// no libclang): the rules are repo idioms, not general C++ semantics, and
// the tool must build everywhere the repo builds. Heuristic misses are
// accepted; heuristic false positives are paid for with an explicit
// suppression that must carry a justification.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace stellar::lint {

// ---- lexer -----------------------------------------------------------------

struct Token {
  enum class Kind { Identifier, Number, String, CharLit, Punct };
  Kind kind = Kind::Punct;
  std::string text;  ///< string tokens hold the *unquoted* value
  int line = 0;
};

struct Comment {
  int line = 0;       ///< line the comment ends on
  std::string text;   ///< contents without the // or /* */ markers
};

struct SourceFile {
  std::string path;                 ///< repo-relative path
  std::vector<std::string> lines;   ///< raw source lines (for snippets)
  std::vector<Token> tokens;        ///< comments and preprocessor lines stripped
  std::vector<Comment> comments;
};

/// Tokenizes `contents`. Preprocessor lines are skipped entirely (their
/// identifiers — <random>, <chrono> — are not *uses*); comments are
/// collected separately for the suppression grammar.
[[nodiscard]] SourceFile lex(std::string path, const std::string& contents);

// ---- findings --------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string snippet;  ///< the offending source line, trimmed
  bool suppressed = false;
  std::string justification;  ///< non-empty iff suppressed
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The rule catalogue, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& ruleCatalogue();
[[nodiscard]] bool isKnownRule(const std::string& id);

// ---- suppression grammar ---------------------------------------------------
//
//   // lint: suppress(RULE-ID) -- justification        (this or next line)
//   // lint-file: suppress(RULE-ID) -- justification   (whole file)
//   // lint: order-insensitive -- justification        (waives
//        DET-UNORDERED-ITER for the loop on this or the next line; the
//        justification asserts the body commutes across element order)
//
// The justification is mandatory: a suppression without ` -- <text>`, or
// naming an unknown rule, is itself a finding (LINT-SUPPRESS) that cannot
// be suppressed.

struct Suppressions {
  /// rule -> lines carrying a line suppression (applies to line and line+1).
  std::map<std::string, std::set<int>> lineRules;
  /// rule -> justification for file-wide suppressions.
  std::map<std::string, std::string> fileRules;
  /// line -> justification, for line suppressions (keyed by rule+line).
  std::map<std::string, std::string> lineJustifications;  // "RULE:line"
  /// Lines with an order-insensitive marker (applies to line and line+1).
  std::set<int> orderInsensitiveLines;
  /// Malformed suppression comments (reported as LINT-SUPPRESS).
  std::vector<Finding> malformed;

  /// If `finding` is covered, marks it suppressed (with justification) and
  /// returns true.
  bool apply(Finding& finding) const;
};

[[nodiscard]] Suppressions parseSuppressions(const SourceFile& file);

// ---- rules -----------------------------------------------------------------

struct RuleContext {
  /// Metric names parsed from src/obs/metric_names.hpp.
  std::set<std::string> metricNames;
  /// True when the catalogue file was found (RES-COUNTER-NAME is skipped —
  /// with a warning finding — when it is missing).
  bool haveCatalogue = false;
};

/// True for paths under the determinism-critical directories
/// (src/sim, src/pfs, src/core, src/faults, src/agents).
[[nodiscard]] bool isSimCritical(const std::string& repoRelPath);

/// Runs every rule over `file`. `pairedHeader` is the same-stem .hpp for a
/// .cpp (member declarations live there), may be null. Suppressions are
/// applied by the caller; the order-insensitive marker set is consumed
/// here because it changes rule behaviour, not just reporting.
void checkFile(const SourceFile& file, const SourceFile* pairedHeader,
               const RuleContext& ctx, const Suppressions& suppressions,
               std::vector<Finding>& out);

// ---- driver ----------------------------------------------------------------

struct Options {
  std::string repoRoot = ".";          ///< directory containing src/
  std::vector<std::string> paths;      ///< files/dirs relative to repoRoot; default {"src"}
};

struct Report {
  std::vector<Finding> findings;  ///< stable order: path, then line
  std::size_t filesScanned = 0;

  [[nodiscard]] std::size_t suppressedCount() const;
  [[nodiscard]] std::size_t unsuppressedCount() const;
};

/// Scans the tree and returns every finding (suppressed ones included,
/// marked as such).
[[nodiscard]] Report run(const Options& options);

/// Machine-readable report (schema version 1; see tests/lint).
[[nodiscard]] std::string toJson(const Report& report);

/// Human diff-style report; suppressed findings shown only when requested.
[[nodiscard]] std::string toText(const Report& report, bool includeSuppressed);

}  // namespace stellar::lint
