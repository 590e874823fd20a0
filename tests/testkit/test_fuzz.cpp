// Always-run parser fuzz regression: replays the committed corpus (plus a
// small deterministic mutation budget) through every hand-rolled parser.
// Each corpus file is a past crash, hang, or degenerate input; the deep
// nesting bomb in particular stack-overflowed util::Json before the parser
// grew its recursion depth cap.
#include <gtest/gtest.h>

#include <filesystem>

#include "testkit/fuzz.hpp"
#include "util/json.hpp"

namespace stellar::testkit {
namespace {

#ifndef STELLAR_TESTKIT_CORPUS_DIR
#error "CMake must define STELLAR_TESTKIT_CORPUS_DIR"
#endif

TEST(Fuzz, CommittedCorpusProducesNoFindings) {
  const auto findings = fuzzCorpus(STELLAR_TESTKIT_CORPUS_DIR, /*seed=*/42,
                                   /*mutationsPerEntry=*/16);
  ASSERT_GT(lastCorpusFileCount(), 0u) << "corpus directory missing or empty";
  for (const FuzzFinding& f : findings) {
    ADD_FAILURE() << fuzzTargetName(f.target) << ": " << f.problem
                  << "\n  input: " << f.input;
  }
}

TEST(Fuzz, CorpusCoversEveryTarget) {
  // A renamed or emptied subdirectory would silently skip a whole parser.
  for (const char* dir :
       {"json", "faultspec", "rules", "campaign", "journal", "session-journal"}) {
    FuzzTarget target;
    ASSERT_TRUE(fuzzTargetByName(dir, target)) << dir;
    const std::filesystem::path sub =
        std::filesystem::path(STELLAR_TESTKIT_CORPUS_DIR) / dir;
    ASSERT_TRUE(std::filesystem::is_directory(sub)) << sub;
    bool hasFile = false;
    for (const auto& entry : std::filesystem::directory_iterator(sub)) {
      hasFile |= entry.is_regular_file();
    }
    EXPECT_TRUE(hasFile) << sub << " has no corpus entries";
  }
}

TEST(Fuzz, DeepNestingBombIsRejectedNotFatal) {
  // Regression for the util::Json recursion depth cap: 100k-deep arrays
  // must throw JsonError instead of overflowing the stack.
  const std::string bomb(100000, '[');
  EXPECT_THROW((void)util::Json::parse(bomb), util::JsonError);
  std::vector<FuzzFinding> findings;
  EXPECT_TRUE(fuzzOne(FuzzTarget::Json, bomb, &findings));
  EXPECT_TRUE(findings.empty());
}

TEST(Fuzz, ReasonableDepthStillParses) {
  // The cap must not reject legitimately nested documents.
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += "[";
  nested += "1";
  for (int i = 0; i < 100; ++i) nested += "]";
  EXPECT_NO_THROW((void)util::Json::parse(nested));
}

TEST(Fuzz, UnknownTargetNameIsRejected) {
  FuzzTarget target;
  EXPECT_FALSE(fuzzTargetByName("yaml", target));
  EXPECT_FALSE(fuzzTargetByName("", target));
}

TEST(Fuzz, MissingCorpusDirReportsZeroFiles) {
  const auto findings = fuzzCorpus("/nonexistent/corpus/dir", 42, 1);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(lastCorpusFileCount(), 0u);
}

}  // namespace
}  // namespace stellar::testkit
