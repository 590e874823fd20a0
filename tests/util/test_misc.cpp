// Units, tables, thread pool, files, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace stellar::util {
namespace {

TEST(Units, FormatBytesPicksSuffix) {
  EXPECT_EQ(formatBytes(512), "512.0 B");
  EXPECT_EQ(formatBytes(64 * kKiB), "64.0 KiB");
  EXPECT_EQ(formatBytes(3 * kMiB / 2), "1.5 MiB");
  EXPECT_EQ(formatBytes(2 * kGiB), "2.0 GiB");
  EXPECT_EQ(formatBytes(3 * kTiB), "3.0 TiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(formatSeconds(12.345), "12.35 s");
  EXPECT_EQ(formatSeconds(0.012), "12.00 ms");
  EXPECT_EQ(formatSeconds(3.2e-5), "32.0 us");
}

TEST(Table, RendersAlignedColumns) {
  Table t{{"workload", "speedup"}};
  t.addRow({"IOR_16M", "4.91"});
  t.addRow({"MDWorkbench_8K", "1.58"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| workload       | speedup |"), std::string::npos);
  EXPECT_NE(out.find("| IOR_16M        | 4.91    |"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t{{"a", "b", "c"}};
  t.addRow({"1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  Table t{{"name", "note"}};
  t.addRow({"x", "has, comma"});
  t.addRow({"y", "has \"quote\""});
  const std::string csv = t.renderCsv();
  EXPECT_NE(csv.find("\"has, comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has \"\"quote\"\"\""), std::string::npos);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool{4};
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool{2};
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(File, RoundTripAndErrors) {
  const std::string path = ::testing::TempDir() + "/stellar_file_test.txt";
  writeFile(path, "hello\nworld\n");
  EXPECT_TRUE(fileExists(path));
  EXPECT_EQ(readFile(path), "hello\nworld\n");
  writeFile(path, "shorter");  // truncates
  EXPECT_EQ(readFile(path), "shorter");
  EXPECT_FALSE(fileExists("/no/such/dir/file.txt"));
  EXPECT_THROW((void)readFile("/no/such/dir/file.txt"), std::runtime_error);
  EXPECT_THROW(writeFile("/no/such/dir/file.txt", "x"), std::runtime_error);
}

TEST(File, EnsureParentDirCreatesMissingAncestors) {
  const std::string base = ::testing::TempDir() + "/stellar_parent_test";
  const std::string nested = base + "/a/b/store.jsonl";
  ensureParentDir(nested);
  writeFile(nested, "x");  // parent chain now exists
  EXPECT_EQ(readFile(nested), "x");
  ensureParentDir(nested);        // idempotent
  ensureParentDir("plain.name");  // no directory part: no-op
}

TEST(File, AppendJsonLineStartsAFreshLineAfterATornTail) {
  const std::string path = ::testing::TempDir() + "/stellar_torn_tail.jsonl";
  Json torn = Json::makeObject();
  torn.set("type", "measurement");
  torn.set("index", 1);
  const std::string line = torn.dump();
  Json next = Json::makeObject();
  next.set("type", "final");
  // A kill mid-write can leave any strict prefix of a line as the tail.
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    writeFile(path, "{\"type\":\"header\"}\n" + line.substr(0, cut));
    appendJsonLine(path, next);
    std::vector<std::string> types;
    const std::size_t skipped = forEachJsonLine(path, "test", [&types](const Json& doc) {
      types.push_back(doc.getString("type"));
    });
    EXPECT_EQ(skipped, 1U) << "torn at byte " << cut;
    EXPECT_EQ(types, (std::vector<std::string>{"header", "final"}))
        << "torn at byte " << cut;
  }
  // A whole tail, or no file at all, gets no extra line break.
  writeFile(path, line + "\n");
  appendJsonLine(path, next);
  EXPECT_EQ(readFile(path), line + "\n" + next.dump() + "\n");
  (void)std::remove(path.c_str());
  appendJsonLine(path, next);
  EXPECT_EQ(readFile(path), next.dump() + "\n");
}

TEST(File, ForEachJsonLineSkipsAndCountsCorruptLines) {
  const std::string path = ::testing::TempDir() + "/stellar_for_each.jsonl";
  (void)std::remove(path.c_str());
  const auto never = [](const Json&) { ADD_FAILURE() << "a missing file has no lines"; };
  EXPECT_EQ(forEachJsonLine(path, "test", never), 0U);

  writeFile(path, "{\"n\":1}\n\n   \nnot json\n{\"n\":2}\n{\"n\":-3}\n{\"n\":4}");
  std::vector<int> seen;
  const std::size_t skipped = forEachJsonLine(path, "test", [&seen](const Json& doc) {
    const int n = doc.getInteger<int>("n", 0);
    if (n < 0) {
      throw JsonError("negative n");  // the callback rejects the line
    }
    seen.push_back(n);
  });
  // The garbage and the rejected line are skipped and counted; blank lines
  // are neither.
  EXPECT_EQ(skipped, 2U);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 4}));
}

TEST(File, ReplaceFileLeavesTheOldFileWholeWhenTheTempWriteFails) {
  const std::string dir = ::testing::TempDir() + "/stellar_replace_test";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/rules.json";
  replaceFile(path, "old\n");  // creates the parent directory
  EXPECT_EQ(readFile(path), "old\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A directory in the temp file's place makes the temp write fail.
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_THROW(replaceFile(path, "new\n"), std::runtime_error);
  EXPECT_EQ(readFile(path), "old\n");

  std::filesystem::remove(path + ".tmp");
  replaceFile(path, "new\n");
  EXPECT_EQ(readFile(path), "new\n");
}

TEST(File, WritesThatFailOnlyWhenFlushedStillThrow) {
  // /dev/full takes buffered bytes and fails their flush with ENOSPC, as a
  // full disk does. A short write is buffered whole until the file closes,
  // so only the close can report it; a replaceFile that missed it would
  // rename a short temp file over the old one.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  EXPECT_THROW(writeFile("/dev/full", "x"), std::runtime_error);
  Json line = Json::makeObject();
  line.set("type", "final");
  EXPECT_THROW(appendJsonLine("/dev/full", line), std::runtime_error);
}

TEST(Log, LevelFilterWorks) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::Error);
  EXPECT_EQ(logLevel(), LogLevel::Error);
  logLine(LogLevel::Debug, "test", "suppressed");  // must not crash
  setLogLevel(before);
}

}  // namespace
}  // namespace stellar::util
