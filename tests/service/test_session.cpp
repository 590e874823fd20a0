// Session surface: request JSON, cell identity, and the basic async
// submit -> poll -> wait lifecycle of the in-process service.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "service/service.hpp"
#include "util/json.hpp"

namespace stellar::service {
namespace {

SubmitOptions quickRequest(const std::string& tenant = "default",
                           std::uint64_t seed = 7) {
  SubmitOptions request;
  request.tenant = tenant;
  request.workload = "IOR_64K";
  request.seed = seed;
  request.scale = 0.05;
  request.warmStart = false;
  return request;
}

TEST(SubmitOptions, JsonRoundTripAndDefaults) {
  SubmitOptions opts = quickRequest("alice", 11);
  opts.faults = "degraded-ost";
  opts.ranks = 32;
  const SubmitOptions back =
      SubmitOptions::fromJson(util::Json::parse(opts.toJson().dump()));
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.workload, "IOR_64K");
  EXPECT_EQ(back.seed, 11U);
  EXPECT_EQ(back.faults, "degraded-ost");
  EXPECT_EQ(back.ranks, 32U);
  EXPECT_FALSE(back.warmStart);

  // Absent fields keep the struct defaults instead of throwing.
  const SubmitOptions sparse =
      SubmitOptions::fromJson(util::Json::parse(R"({"workload":"x"})"));
  EXPECT_EQ(sparse.tenant, "default");
  EXPECT_EQ(sparse.seed, 1U);
  EXPECT_TRUE(sparse.warmStart);

  // Integers outside the field's range are rejected, not cast.
  for (const char* bad : {R"({"workload":"x","seed":-1})",
                          R"({"workload":"x","seed":1e300})",
                          R"({"workload":"x","ranks":5e9})"}) {
    EXPECT_THROW((void)SubmitOptions::fromJson(util::Json::parse(bad)),
                 util::JsonError)
        << bad;
  }
}

TEST(CellKey, CoversTheCellAndExcludesTenancy) {
  const SubmitOptions a = quickRequest("alice");
  SubmitOptions b = quickRequest("bob");
  EXPECT_EQ(cellKey(a), cellKey(b));  // tenant is not part of the cell

  b.warmStart = true;  // warm start changes how a run starts, not the cell
  EXPECT_EQ(cellKey(a), cellKey(b));

  for (const auto& mutate : {
           +[](SubmitOptions& r) { r.workload = "MDWorkbench_8K"; },
           +[](SubmitOptions& r) { r.seed = 8; },
           +[](SubmitOptions& r) { r.model = "gpt-4o"; },
           +[](SubmitOptions& r) { r.faults = "degraded-ost"; },
           +[](SubmitOptions& r) { r.scale = 0.1; },
           +[](SubmitOptions& r) { r.ranks = 16; },
       }) {
    SubmitOptions changed = quickRequest();
    mutate(changed);
    EXPECT_NE(cellKey(quickRequest()), cellKey(changed));
  }
}

TEST(CellKey, FileStemIsFilesystemSafeAndInjective) {
  const std::string stem = cellFileStem("IOR_64K|7|claude-3.7-sonnet|none|x");
  for (const char c : stem) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                c == '-')
        << "unsafe char in stem: " << stem;
  }
  EXPECT_NE(cellFileStem("a|b"), cellFileStem("a_b"));  // hash disambiguates
}

TEST(TenantId, Validation) {
  EXPECT_TRUE(validTenantId("alice"));
  EXPECT_TRUE(validTenantId("team-a_42"));
  EXPECT_FALSE(validTenantId(""));
  EXPECT_FALSE(validTenantId("Alice"));
  EXPECT_FALSE(validTenantId("a/b"));
  EXPECT_FALSE(validTenantId("a b"));
}

TEST(Names, StateAndRejectionNames) {
  EXPECT_STREQ(sessionStateName(SessionState::Queued), "queued");
  EXPECT_STREQ(sessionStateName(SessionState::Completed), "completed");
  EXPECT_STREQ(sessionStateName(SessionState::Interrupted), "interrupted");
  EXPECT_STREQ(rejectReasonName(RejectReason::QueueFull), "queue_full");
  EXPECT_STREQ(rejectReasonName(RejectReason::TenantQuota), "tenant_quota");
}

TEST(TuningServiceSession, SubmitWaitLifecycle) {
  ServiceOptions options;  // memory-only
  options.workers = 2;
  TuningService service{options};

  const SubmitResult submitted = service.submit(quickRequest());
  ASSERT_TRUE(submitted.accepted());
  const SessionId id = *submitted.id;
  EXPECT_GE(id, 1U);

  const SessionResult result = service.wait(id);
  EXPECT_EQ(result.state, SessionState::Completed);
  EXPECT_EQ(result.id, id);
  EXPECT_EQ(result.tenant, "default");
  EXPECT_FALSE(result.coalesced);
  EXPECT_FALSE(result.replayed);
  ASSERT_FALSE(result.cellDoc.isNull());
  EXPECT_EQ(result.cellDoc.getString("workload"), "IOR_64K");
  EXPECT_EQ(service.poll(id), SessionState::Completed);

  // wait() is idempotent: same document, no double-retire underflow.
  const SessionResult again = service.wait(id);
  EXPECT_EQ(again.toJson().dump(), result.toJson().dump());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1U);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.freshRuns, 1U);
  EXPECT_EQ(stats.failed, 0U);
  EXPECT_EQ(stats.peakOutstanding, 1U);
}

TEST(TuningServiceSession, ResultDocExcludesTimingAndReplayProvenance) {
  SessionResult result;
  result.id = 3;
  result.tenant = "alice";
  result.key = "k";
  result.state = SessionState::Completed;
  result.submitNanos = 123;
  result.completeNanos = 456;
  result.replayed = true;
  const std::string doc = result.toJson().dump();
  EXPECT_EQ(doc.find("nanos"), std::string::npos);
  EXPECT_EQ(doc.find("replay"), std::string::npos);
  EXPECT_EQ(doc.find("123"), std::string::npos);
}

TEST(TuningServiceSession, PollAndWaitRejectUnknownIds) {
  TuningService service{ServiceOptions{}};
  EXPECT_THROW((void)service.poll(99), std::invalid_argument);
  EXPECT_THROW((void)service.wait(99), std::invalid_argument);
}

TEST(TuningServiceSession, UnknownWorkloadFailsTheSessionNotTheService) {
  TuningService service{ServiceOptions{}};
  SubmitOptions request = quickRequest();
  request.workload = "no-such-workload";
  const SubmitResult submitted = service.submit(request);
  ASSERT_TRUE(submitted.accepted());
  const SessionResult result = service.wait(*submitted.id);
  EXPECT_EQ(result.state, SessionState::Failed);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.cellDoc.isNull());
  EXPECT_EQ(service.stats().failed, 1U);

  // The service is still healthy for the next session.
  const SubmitResult ok = service.submit(quickRequest());
  ASSERT_TRUE(ok.accepted());
  EXPECT_EQ(service.wait(*ok.id).state, SessionState::Completed);
}

TEST(TuningServiceSession, InjectedClockStampsLatency) {
  static std::uint64_t tick;
  tick = 0;
  ServiceOptions options;
  options.clock = +[] { return tick += 1000; };
  TuningService service{options};
  const SubmitResult submitted = service.submit(quickRequest());
  ASSERT_TRUE(submitted.accepted());
  const SessionResult result = service.wait(*submitted.id);
  EXPECT_GT(result.submitNanos, 0U);
  EXPECT_GT(result.completeNanos, result.submitNanos);
}

}  // namespace
}  // namespace stellar::service
