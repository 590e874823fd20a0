// Tests for stellar-lint (tools/stellar_lint). Fixture files under
// fixtures/ mirror the repo layout so path-based rule scoping applies;
// they are data, not compiled code. The suite ends with a self-test that
// holds the shipped src/ tree to zero unsuppressed findings.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "util/json.hpp"

namespace stellar::lint {
namespace {

Report runOn(std::vector<std::string> paths) {
  Options options;
  options.repoRoot = STELLAR_LINT_FIXTURES;
  options.paths = std::move(paths);
  return run(options);
}

/// (rule, line) pairs of every finding, for exact-location assertions.
std::multiset<std::pair<std::string, int>> locations(const Report& report,
                                                     bool suppressed) {
  std::multiset<std::pair<std::string, int>> out;
  for (const Finding& f : report.findings) {
    if (f.suppressed == suppressed) {
      out.emplace(f.rule, f.line);
    }
  }
  return out;
}

// ---- lexer -----------------------------------------------------------------

TEST(Lexer, TokenizesIdentifiersNumbersAndStrings) {
  const SourceFile file = lex("x.cpp", "foo(42, \"bar\", 'c');\n");
  ASSERT_EQ(file.tokens.size(), 9U);
  EXPECT_EQ(file.tokens[0].kind, Token::Kind::Identifier);
  EXPECT_EQ(file.tokens[0].text, "foo");
  EXPECT_EQ(file.tokens[2].kind, Token::Kind::Number);
  EXPECT_EQ(file.tokens[2].text, "42");
  EXPECT_EQ(file.tokens[4].kind, Token::Kind::String);
  EXPECT_EQ(file.tokens[4].text, "bar");
  EXPECT_EQ(file.tokens[6].kind, Token::Kind::CharLit);
}

TEST(Lexer, SkipsPreprocessorLinesAndCollectsComments) {
  const SourceFile file =
      lex("x.cpp", "#include <random>\n// note\nint x; /* block */\n");
  for (const Token& t : file.tokens) {
    EXPECT_NE(t.text, "random") << "include payload leaked into tokens";
  }
  ASSERT_EQ(file.comments.size(), 2U);
  EXPECT_EQ(file.comments[0].line, 2);
  EXPECT_EQ(file.comments[0].text, " note");
}

TEST(Lexer, TracksLinesThroughRawStringsAndBlockComments) {
  const SourceFile file =
      lex("x.cpp", "auto s = R\"(line1\nline2)\";\n/* a\nb */\nint y;\n");
  ASSERT_GE(file.tokens.size(), 2U);
  const Token& y = file.tokens[file.tokens.size() - 2];
  EXPECT_EQ(y.text, "y");
  EXPECT_EQ(y.line, 5);
}

TEST(Lexer, KeepsScopeResolutionAtomic) {
  const SourceFile file = lex("x.cpp", "std::hash<int> h;\n");
  ASSERT_GE(file.tokens.size(), 3U);
  EXPECT_EQ(file.tokens[1].kind, Token::Kind::Punct);
  EXPECT_EQ(file.tokens[1].text, "::");
}

// ---- determinism rules -----------------------------------------------------

TEST(Rules, DetRandomFlagsEnginesAndCallsOnly) {
  const Report report = runOn({"src/sim/det_random.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"DET-RANDOM", 5}, {"DET-RANDOM", 5}, {"DET-RANDOM", 6}, {"DET-RANDOM", 7}};
  EXPECT_EQ(got, want);  // `strand`/`rng.fork()` must not match
}

TEST(Rules, DetClockFlagsWallClocksNotSimTime) {
  const Report report = runOn({"src/sim/det_clock.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"DET-CLOCK", 6}, {"DET-CLOCK", 7}, {"DET-CLOCK", 8}, {"DET-CLOCK", 9}};
  EXPECT_EQ(got, want);  // engine.now() / event.time() / .time field stay legal
}

TEST(Rules, DetHashFlagsStdHashOnly) {
  const Report report = runOn({"src/sim/det_hash.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"DET-HASH", 5}};
  EXPECT_EQ(got, want);  // util::hash64 and my::hash stay legal
}

TEST(Rules, DetSeedLiteralFlagsCallsNotOptionDefaults) {
  const Report report = runOn({"src/sim/det_seed.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"DET-SEED-LITERAL", 9},
                                                           {"DET-SEED-LITERAL", 10}};
  EXPECT_EQ(got, want);  // `seed = 42` default and opts.seed plumbing stay legal
}

TEST(Rules, DetUnorderedIterAndFloatAccum) {
  const Report report = runOn({"src/sim/det_unordered.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"DET-UNORDERED-ITER", 10},  // bad(): unmarked loop
      {"DET-FLOAT-ACCUM", 18},     // badFloat(): marker cannot waive FP accum
  };
  EXPECT_EQ(got, want);  // waived() integer count and std::map loop stay legal
}

TEST(Rules, DetUnorderedIterSeesPairedHeaderDeclarations) {
  const Report report = runOn({"src/sim/paired.cpp", "src/sim/paired.hpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"DET-UNORDERED-ITER", 7}};
  EXPECT_EQ(got, want);
}

TEST(Rules, DeterminismRulesScopeToSimCriticalDirs) {
  const Report report = runOn({"src/util/noncritical.cpp"});
  EXPECT_TRUE(report.findings.empty())
      << toText(report, /*includeSuppressed=*/true);
}

// ---- resilience rules ------------------------------------------------------

TEST(Rules, ServiceDirIsSimCritical) {
  // The stellard dispatch path (src/service) joined the sim-critical set:
  // wall clocks there would break the 1-vs-8-worker byte-compare law.
  const Report report = runOn({"src/service/clocked_dispatch.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"DET-CLOCK", 8}, {"RES-COUNTER-NAME", 9}};
  EXPECT_EQ(got, want);  // injected clock + catalogued service.* name stay legal
}

TEST(Rules, ResJsonAtRequiresGuardOrParseScope) {
  const Report report = runOn({"src/core/res_json.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"RES-JSON-AT", 5}};
  EXPECT_EQ(got, want);  // contains()/try/fromJson/two-arg forms stay legal
}

TEST(Rules, ResJsonIntFlagsIntegerCastsOfJsonNumbers) {
  const Report report = runOn({"src/core/res_json_int.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"RES-JSON-INT", 5}, {"RES-JSON-INT", 6}, {"RES-JSON-INT", 7}};
  EXPECT_EQ(got, want);  // df::asNumber, doubles, floats and asInteger stay legal
}

TEST(Rules, ResCounterNameChecksTheCatalogue) {
  const Report report = runOn({"src/core/res_counter.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"RES-COUNTER-NAME", 5}};
  EXPECT_EQ(got, want);  // catalogue names, ternaries, non-literals stay legal
}

TEST(Rules, ResThrowTaskFlagsNakedThrowInSubmittedTask) {
  const Report report = runOn({"src/core/res_throw.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {{"RES-THROW-TASK", 7}};
  EXPECT_EQ(got, want);  // try-wrapped and outside-submit throws stay legal
}

TEST(Rules, ResRawAppendAllowsAppendsOnlyInTheFileLayer) {
  const Report report = runOn({"src/exp/raw_append.cpp", "src/util/file.cpp"});
  const auto got = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> want = {
      {"RES-RAW-APPEND", 5}, {"RES-RAW-APPEND", 6}, {"RES-RAW-APPEND", 7},
      {"RES-RAW-APPEND", 8}, {"RES-RAW-APPEND", 9}};
  EXPECT_EQ(got, want);  // reads, truncation, nested strings and util/file.cpp stay legal
}

// ---- suppressions ----------------------------------------------------------

TEST(Suppressions, RoundTripWithJustifications) {
  const Report report = runOn({"src/sim/suppressed.cpp"});

  const auto suppressed = locations(report, /*suppressed=*/true);
  const std::multiset<std::pair<std::string, int>> wantSuppressed = {
      {"DET-CLOCK", 7},   // next-line suppression
      {"DET-CLOCK", 8},   // same-line suppression
      {"DET-HASH", 12},   // lint-file suppression
      {"DET-HASH", 13},
  };
  EXPECT_EQ(suppressed, wantSuppressed);

  for (const Finding& f : report.findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.justification.empty()) << f.rule << ":" << f.line;
    }
  }

  // Malformed directives are LINT-SUPPRESS findings, never suppressible.
  const auto unsuppressed = locations(report, /*suppressed=*/false);
  const std::multiset<std::pair<std::string, int>> wantUnsuppressed = {
      {"DET-CLOCK", 17},      // stillCaught(): no directive covers it
      {"LINT-SUPPRESS", 20},  // unknown rule
      {"LINT-SUPPRESS", 21},  // missing justification
      {"LINT-SUPPRESS", 22},  // order-insensitive without justification
      {"LINT-SUPPRESS", 23},  // unrecognised directive
      {"LINT-SUPPRESS", 24},  // attempt to suppress LINT-SUPPRESS
  };
  EXPECT_EQ(unsuppressed, wantUnsuppressed);
}

TEST(Suppressions, CatalogueListsEveryRuleExactlyOnce) {
  std::set<std::string> ids;
  for (const RuleInfo& rule : ruleCatalogue()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
    EXPECT_TRUE(isKnownRule(rule.id));
  }
  EXPECT_EQ(ids.size(), 12U);
  EXPECT_FALSE(isKnownRule("NO-SUCH-RULE"));
}

// ---- report output ---------------------------------------------------------

TEST(Output, JsonReportMatchesSchemaVersion1) {
  const Report report = runOn({"src/sim/suppressed.cpp"});
  const util::Json doc = util::Json::parse(toJson(report));

  EXPECT_EQ(doc.getNumber("schema"), 1.0);
  EXPECT_EQ(doc.getNumber("files_scanned"), 1.0);

  const util::Json& summary = doc.at("summary");
  EXPECT_EQ(summary.getInteger<std::size_t>("total", 0), report.findings.size());
  EXPECT_EQ(summary.getInteger<std::size_t>("suppressed", 0), report.suppressedCount());
  EXPECT_EQ(summary.getInteger<std::size_t>("unsuppressed", 0), report.unsuppressedCount());

  const auto& findings = doc.at("findings").asArray();
  ASSERT_EQ(findings.size(), report.findings.size());
  for (const util::Json& f : findings) {
    EXPECT_TRUE(f.contains("file"));
    EXPECT_TRUE(f.contains("line"));
    EXPECT_TRUE(f.contains("rule"));
    EXPECT_TRUE(f.contains("message"));
    EXPECT_TRUE(f.contains("snippet"));
    EXPECT_TRUE(f.contains("suppressed"));
    EXPECT_TRUE(f.contains("justification"));
    EXPECT_TRUE(isKnownRule(f.at("rule").asString()));
  }
}

TEST(Output, TextReportHidesSuppressedByDefault) {
  const Report report = runOn({"src/sim/suppressed.cpp"});
  const std::string quiet = toText(report, /*includeSuppressed=*/false);
  const std::string loud = toText(report, /*includeSuppressed=*/true);
  EXPECT_EQ(quiet.find("(suppressed)"), std::string::npos);
  EXPECT_NE(loud.find("(suppressed)"), std::string::npos);
  EXPECT_NE(loud.find("lint-file"), std::string::npos);
}

TEST(Output, FindingsAreSortedByPathThenLine) {
  Options options;
  options.repoRoot = STELLAR_LINT_FIXTURES;
  const Report report = run(options);  // default: the whole fixture src/
  EXPECT_TRUE(std::is_sorted(report.findings.begin(), report.findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line) <
                                      std::tie(b.file, b.line);
                             }));
  EXPECT_GE(report.filesScanned, 12U);
}

// ---- self-test -------------------------------------------------------------

// The shipped tree must hold its own invariants: every rule passes over
// src/ with zero unsuppressed findings. A new violation fails this test
// locally before CI sees it.
TEST(SelfTest, ShippedSourceTreeIsLintClean) {
  Options options;
  options.repoRoot = STELLAR_LINT_REPO_ROOT;
  options.paths = {"src"};
  const Report report = run(options);
  EXPECT_GT(report.filesScanned, 100U);
  EXPECT_EQ(report.unsuppressedCount(), 0U)
      << toText(report, /*includeSuppressed=*/false);
}

}  // namespace
}  // namespace stellar::lint
