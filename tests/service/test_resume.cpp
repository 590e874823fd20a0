// Crash safety: a service killed with half its queue drained resumes from
// its session journals and produces byte-identical per-session documents —
// the service-level analogue of the engine's KILL-RESUME law.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "util/file.hpp"

namespace stellar::service {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / ("service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<SubmitOptions> schedule() {
  std::vector<SubmitOptions> out;
  const auto add = [&](const std::string& tenant, const std::string& workload,
                       std::uint64_t seed) {
    SubmitOptions request;
    request.tenant = tenant;
    request.workload = workload;
    request.seed = seed;
    request.scale = 0.05;
    request.warmStart = false;
    out.push_back(request);
  };
  add("alice", "IOR_64K", 7);
  add("bob", "MDWorkbench_8K", 7);
  add("alice", "IOR_64K", 8);
  add("bob", "IOR_64K", 7);  // duplicate of #1: coalesces
  return out;
}

std::string runSchedule(const std::string& storePath, std::size_t workers,
                        std::size_t maxFresh,
                        const std::vector<SubmitOptions>& requests = schedule(),
                        ServiceStats* stats = nullptr) {
  ServiceOptions options;
  options.storePath = storePath;
  options.workers = workers;
  options.maxFreshSessions = maxFresh;
  TuningService service{options};
  for (const SubmitOptions& request : requests) {
    const SubmitResult submitted = service.submit(request);
    EXPECT_TRUE(submitted.accepted());
  }
  std::string all;
  for (const SessionResult& result : service.drainAll()) {
    all += result.toJson().dump() + "\n";
  }
  if (stats != nullptr) {
    *stats = service.stats();
  }
  return all;
}

/// Every session journal under the store, file name -> contents.
std::map<std::string, std::string> journals(const std::string& storePath) {
  std::map<std::string, std::string> out;
  for (const std::string& path : util::listDir(storePath + ".sessions")) {
    out[fs::path{path}.filename().string()] = util::readFile(path);
  }
  return out;
}

TEST(Resume, KilledServiceResumesByteIdentically) {
  const fs::path killed = freshDir("killed");
  const fs::path reference = freshDir("reference");

  // Uninterrupted reference run.
  const std::string expected =
      runSchedule((reference / "store.jsonl").string(), 2, 0);
  ASSERT_NE(expected.find("\"state\":\"completed\""), std::string::npos);

  // Run 1: the fresh-cell cap interrupts the service after 2 of 3 cells.
  const std::string partial =
      runSchedule((killed / "store.jsonl").string(), 2, 2);
  EXPECT_NE(partial.find("interrupted"), std::string::npos);
  EXPECT_NE(partial, expected);

  // Run 2: same schedule, no cap — completed cells replay from their
  // journals, interrupted ones run fresh; the documents match the
  // uninterrupted run byte for byte.
  const std::string resumed =
      runSchedule((killed / "store.jsonl").string(), 2, 0);
  EXPECT_EQ(resumed, expected);
}

TEST(Resume, CommitWaitsUntilNoSessionIsInterrupted) {
  // Warm-started IOR_64K at seeds 7 and 8 over a store holding seed 1's
  // record, committing after every run. A commit after the capped run must
  // absorb nothing: if it filed seed 7's record, the resumed seed 8 would
  // warm-start from it and its document would differ from an
  // uninterrupted run's. Both seeds recall seed 1, and both verdicts must
  // reach the store, including seed 7's from the capped run, so the two
  // stores end byte-identical.
  struct Batch {
    std::string docs;
    std::size_t absorbed = 0;
  };
  const auto runBatch = [](const std::string& storePath, std::size_t maxFresh,
                           const std::vector<std::uint64_t>& seeds) {
    ServiceOptions options;
    options.storePath = storePath;
    options.maxFreshSessions = maxFresh;
    TuningService service{options};
    for (const std::uint64_t seed : seeds) {
      SubmitOptions request;
      request.workload = "IOR_64K";
      request.seed = seed;
      request.scale = 0.05;
      request.warmStart = true;
      EXPECT_TRUE(service.submit(request).accepted());
    }
    Batch batch;
    for (const SessionResult& result : service.drainAll()) {
      batch.docs += result.toJson().dump() + "\n";
    }
    batch.absorbed = service.commit();
    return batch;
  };
  const std::string reference = (freshDir("commit_reference") / "store.jsonl").string();
  const std::string killed = (freshDir("commit_killed") / "store.jsonl").string();
  for (const std::string& store : {reference, killed}) {
    ASSERT_EQ(runBatch(store, 0, {1}).absorbed, 1U);
  }
  const Batch expected = runBatch(reference, 0, {7, 8});
  EXPECT_EQ(expected.absorbed, 2U);
  EXPECT_NE(expected.docs.find("\"warm_started\":true"), std::string::npos);

  const Batch partial = runBatch(killed, 1, {7, 8});
  EXPECT_NE(partial.docs.find("interrupted"), std::string::npos);
  EXPECT_EQ(partial.absorbed, 0U);  // deferred to the run that completes it

  const Batch resumed = runBatch(killed, 0, {7, 8});
  EXPECT_EQ(resumed.docs, expected.docs);
  EXPECT_EQ(resumed.absorbed, 2U);
  EXPECT_EQ(util::readFile(killed), util::readFile(reference));
}

TEST(Resume, ResumeIsIdenticalAcrossWorkerCounts) {
  const std::string a = (freshDir("w1") / "store.jsonl").string();
  const std::string b = (freshDir("w8") / "store.jsonl").string();
  (void)runSchedule(a, 1, 2);
  (void)runSchedule(b, 8, 2);
  // The fresh-cell cap counts in submission order, so even the PARTIAL
  // runs complete the same cells at 1 and 8 workers, byte for byte.
  const std::map<std::string, std::string> partialA = journals(a);
  EXPECT_EQ(partialA.size(), 2U);
  EXPECT_EQ(partialA, journals(b));
  const std::string resumedA = runSchedule(a, 1, 0);
  const std::string resumedB = runSchedule(b, 8, 0);
  EXPECT_EQ(resumedA, resumedB);
  EXPECT_EQ(journals(a), journals(b));
}

TEST(Resume, ReplayedSessionsAreCountedAndSkipEngineRuns) {
  const fs::path dir = freshDir("counts");
  const std::string store = (dir / "store.jsonl").string();
  (void)runSchedule(store, 2, 0);

  ServiceOptions options;
  options.storePath = store;
  TuningService service{options};
  for (const SubmitOptions& request : schedule()) {
    ASSERT_TRUE(service.submit(request).accepted());
  }
  (void)service.drainAll();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.freshRuns, 0U);  // everything came from the journals
  EXPECT_EQ(stats.replayed, 4U);   // every member session, fan-out included
  EXPECT_EQ(stats.completed, 4U);
}

TEST(Resume, TornJournalFinalLineReRunsFromItsMeasurements) {
  const fs::path dir = freshDir("torn");
  const std::string store = (dir / "store.jsonl").string();
  const std::string expected = runSchedule(store, 2, 0);

  // Tear the final line of IOR_64K seed 7's journal (the cell two sessions
  // share), as a kill mid-write would.
  const std::string path = store + ".sessions/" +
                           cellFileStem(cellKey(schedule().front())) + ".jsonl";
  const std::string intact = util::readFile(path);
  const std::size_t finalLine = intact.rfind("{\"type\":\"final\"");
  ASSERT_NE(finalLine, std::string::npos);
  util::writeFile(path, intact.substr(0, finalLine + 40));

  ServiceStats stats;
  const std::string resumed = runSchedule(store, 2, 0, schedule(), &stats);
  EXPECT_EQ(resumed, expected);
  EXPECT_EQ(stats.freshRuns, 1U);  // only the torn cell runs again...
  EXPECT_EQ(stats.replayed, 2U);   // ...the other two cells replay
  // ...and it replayed its journaled measurements instead of measuring
  // again: the journal only gained a final line after the torn one.
  const std::string after = util::readFile(path);
  ASSERT_GT(after.size(), finalLine);
  EXPECT_EQ(after.substr(0, finalLine), intact.substr(0, finalLine));
  EXPECT_EQ(after.find("\"measurement\"", finalLine), std::string::npos);
  EXPECT_EQ(journals(store).size(), 3U);
}

TEST(Resume, FailedCellIsNotRecordedAndFailsTheSameWayOnResume) {
  const fs::path dir = freshDir("failed");
  const std::string store = (dir / "store.jsonl").string();
  std::vector<SubmitOptions> requests = schedule();
  requests.resize(2);
  requests[1].workload = "NoSuchWorkload";

  ServiceStats first;
  const std::string expected = runSchedule(store, 2, 0, requests, &first);
  EXPECT_EQ(first.failed, 1U);
  EXPECT_NE(expected.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_EQ(journals(store).size(), 1U);  // no journal for the failed cell

  ServiceStats second;
  const std::string resumed = runSchedule(store, 2, 0, requests, &second);
  EXPECT_EQ(resumed, expected);
  EXPECT_EQ(second.failed, 1U);
  EXPECT_EQ(second.replayed, 1U);   // the good cell
  EXPECT_EQ(second.freshRuns, 1U);  // the bad one fails again, before any run
}

TEST(Resume, SessionJournalsLandUnderTheStoreLayout) {
  const fs::path dir = freshDir("journals");
  const std::string store = (dir / "store.jsonl").string();
  (void)runSchedule(store, 2, 0);
  // Per-cell session journals live in `<store>.sessions/` so the CLI and
  // stellard share one layout.
  EXPECT_TRUE(fs::exists(dir / "store.jsonl.sessions"));
  std::size_t journals = 0;
  for (const auto& entry : fs::directory_iterator(dir / "store.jsonl.sessions")) {
    journals += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(journals, 3U);  // one per distinct cell, none for the coalesce
}

}  // namespace
}  // namespace stellar::service
