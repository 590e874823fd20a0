// LlmFaultModel determinism and windows, LlmClient retry/breaker
// machinery, and TokenMeter wasted-call accounting (ISSUE 7).
#include <gtest/gtest.h>

#include <string>

#include "faults/fault_plan.hpp"
#include "llm/llm_client.hpp"
#include "llm/llm_fault_model.hpp"
#include "llm/model_profile.hpp"
#include "llm/token_meter.hpp"
#include "obs/counters.hpp"

namespace stellar::llm {
namespace {

TEST(LlmFaultModel, InertWithoutLlmEvents) {
  const LlmFaultModel none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.sample("claude-3.7-sonnet", 0, 0).corrupted());
  EXPECT_EQ(none.sample("claude-3.7-sonnet", 0, 0).transport, CallFault::None);

  // A plan with only simulator-side kinds is just as inert.
  const LlmFaultModel simOnly{faults::parseFaultSpec("ost:1:degrade:0.5@0-10")};
  EXPECT_TRUE(simOnly.empty());
}

TEST(LlmFaultModel, SamplingIsDeterministic) {
  const faults::FaultPlan plan =
      faults::parseFaultSpec("llm:timeout:0.5@0-100,llm:bad-knob:0.5@0-100,seed:9");
  const LlmFaultModel a{plan};
  const LlmFaultModel b{plan};
  for (std::uint64_t call = 0; call < 64; ++call) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const CallDirectives da = a.sample("gpt-4o", call, attempt);
      const CallDirectives db = b.sample("gpt-4o", call, attempt);
      EXPECT_EQ(da.transport, db.transport);
      EXPECT_EQ(da.hallucinatedKnob, db.hallucinatedKnob);
    }
  }
  // The plan seed decorrelates the draws: same events, different seed,
  // different weather.
  faults::FaultPlan reseeded = plan;
  reseeded.seed = 10;
  const LlmFaultModel c{reseeded};
  bool anyDifferent = false;
  for (std::uint64_t call = 0; call < 64 && !anyDifferent; ++call) {
    anyDifferent = a.sample("gpt-4o", call, 0).transport !=
                   c.sample("gpt-4o", call, 0).transport;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(LlmFaultModel, WindowsCountCallIndices) {
  const LlmFaultModel model{faults::parseFaultSpec("llm:timeout:1@2-4")};
  EXPECT_EQ(model.sample("m", 0, 0).transport, CallFault::None);
  EXPECT_EQ(model.sample("m", 1, 0).transport, CallFault::None);
  EXPECT_EQ(model.sample("m", 2, 0).transport, CallFault::Timeout);
  EXPECT_EQ(model.sample("m", 3, 0).transport, CallFault::Timeout);
  EXPECT_EQ(model.sample("m", 4, 0).transport, CallFault::None);  // [begin, end)
  // p=1 windows fail every retry attempt too.
  EXPECT_EQ(model.sample("m", 3, 3).transport, CallFault::Timeout);
}

TEST(LlmFaultModel, ModelFilterIsSubstringMatch) {
  const LlmFaultModel model{faults::parseFaultSpec("llm:timeout:1:claude@0-99")};
  EXPECT_EQ(model.sample("claude-3.7-sonnet", 0, 0).transport, CallFault::Timeout);
  EXPECT_EQ(model.sample("gpt-4o", 0, 0).transport, CallFault::None);
  EXPECT_EQ(model.sample("llama-3.1-70b-instruct", 0, 0).transport, CallFault::None);
}

TEST(LlmFaultModel, ContentFaultsLeaveTransportClean) {
  const LlmFaultModel model{
      faults::parseFaultSpec("llm:bad-knob:1@0-9,llm:bad-value:1@0-9,llm:stale:1@0-9")};
  const CallDirectives d = model.sample("m", 1, 0);
  EXPECT_EQ(d.transport, CallFault::None);
  EXPECT_TRUE(d.delivered());
  EXPECT_TRUE(d.hallucinatedKnob);
  EXPECT_TRUE(d.outOfRange);
  EXPECT_TRUE(d.staleAnalysis);
  EXPECT_TRUE(d.corrupted());
}

// ---- LlmClient ----------------------------------------------------------

TEST(LlmClient, CleanPathMatchesBareMeter) {
  TokenMeter bare;
  TokenMeter viaClient;
  LlmClient client{nullptr, viaClient, nullptr};

  const ModelProfile model = claude37Sonnet();
  for (int i = 0; i < 3; ++i) {
    const std::string prompt = "shared prefix + turn " + std::to_string(i);
    (void)bare.recordCall("conv", prompt, "output");
    const CallOutcome outcome = client.call(model, "conv", prompt, "output");
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.retries, 0);
  }
  const UsageTotals a = bare.totals();
  const UsageTotals b = viaClient.totals();
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.inputTokens, b.inputTokens);
  EXPECT_EQ(a.cachedTokens, b.cachedTokens);
  EXPECT_EQ(a.outputTokens, b.outputTokens);
  EXPECT_EQ(b.wastedCalls, 0u);
}

TEST(LlmClient, RetriesFlakyCallAndBillsWaste) {
  // Call 0 sits in a p=1 timeout window: every retry attempt fails, the
  // logical call is abandoned after kMaxRetries, and each attempt is billed.
  const faults::FaultPlan plan = faults::parseFaultSpec("llm:timeout:1@0-1");
  const LlmFaultModel faults{plan};
  TokenMeter meter;
  obs::CounterRegistry registry;
  LlmClient client{&faults, meter, &registry};

  const ModelProfile model = claude37Sonnet();
  // Call 0: inside the p=1 window — all 4 attempts fail.
  const CallOutcome failed = client.call(model, "conv", "prompt", "output");
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.lastFault, CallFault::Timeout);
  EXPECT_EQ(failed.retries, LlmClient::kMaxRetries);
  EXPECT_GT(failed.backoffSeconds, 0.0);

  const UsageTotals t = meter.totals();
  EXPECT_EQ(t.calls, 0u);
  EXPECT_EQ(t.wastedCalls, 4u);       // every attempt billed (3 retries)
  EXPECT_GT(t.wastedInputTokens, 0u);
  // Timeouts produce no output, so nothing lands in wasted output.
  EXPECT_EQ(t.wastedOutputTokens, 0u);
  EXPECT_EQ(client.failedCalls(), 1u);
  EXPECT_EQ(client.wastedAttempts(), 4u);
}

TEST(LlmClient, TruncatedAttemptsBillPartialOutput) {
  // The window covers call 0, so each of its attempts is truncated.
  const LlmFaultModel faults{faults::parseFaultSpec("llm:truncate:1@0-1")};
  TokenMeter meter;
  LlmClient client{&faults, meter, nullptr};
  (void)client.call(claude37Sonnet(), "conv", "prompt", "a long output payload");
  EXPECT_EQ(meter.totals().wastedCalls, 1u + LlmClient::kMaxRetries);
  EXPECT_GT(meter.totals().wastedOutputTokens, 0u);
}

TEST(LlmClient, BreakerLifecycle) {
  // Calls 0-4 time out hard, every attempt of them; later calls are clean.
  // The breaker trips after 2 failed calls and cools down for 2.
  static_assert(LlmClient::kBreakerThreshold == 2 &&
                LlmClient::kBreakerCooldownCalls == 2);
  const LlmFaultModel faults{faults::parseFaultSpec("llm:timeout:1@0-5")};
  TokenMeter meter;
  LlmClient client{&faults, meter, nullptr};
  const ModelProfile model = claude37Sonnet();

  EXPECT_EQ(client.breakerState(model.name), BreakerState::Closed);
  const CallOutcome first = client.call(model, "c", "p", "o");  // call 0: failure 1
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.retries, LlmClient::kMaxRetries);  // a closed breaker retries
  EXPECT_EQ(client.breakerState(model.name), BreakerState::Closed);
  EXPECT_FALSE(client.call(model, "c", "p", "o").ok);  // call 1: failure 2 -> trips
  EXPECT_EQ(client.breakerState(model.name), BreakerState::Open);
  EXPECT_EQ(client.breakerTrips(), 1u);

  // Call 2, cooling down: short-circuits without sending anything.
  const std::size_t wastedBefore = meter.totals().wastedCalls;
  const CallOutcome shorted = client.call(model, "c", "p", "o");
  EXPECT_FALSE(shorted.ok);
  EXPECT_TRUE(shorted.breakerOpen);
  EXPECT_EQ(meter.totals().wastedCalls, wastedBefore);

  // Call 3, half-open probe: single attempt, still inside the fault
  // window, so it fails and re-opens the breaker.
  const CallOutcome probe = client.call(model, "c", "p", "o");
  EXPECT_FALSE(probe.ok);
  EXPECT_FALSE(probe.breakerOpen);  // the probe really was attempted
  EXPECT_EQ(probe.retries, 0);      // half-open grants exactly one attempt
  EXPECT_EQ(client.breakerState(model.name), BreakerState::Open);
  EXPECT_EQ(client.breakerTrips(), 2u);

  // Call 4 cools down again; the call-5 probe is past the window, so it
  // succeeds and the breaker closes.
  EXPECT_TRUE(client.call(model, "c", "p", "o").breakerOpen);
  EXPECT_TRUE(client.call(model, "c", "p", "o").ok);
  EXPECT_EQ(client.breakerState(model.name), BreakerState::Closed);
}

TEST(LlmClient, BreakersArePerModel) {
  const LlmFaultModel faults{faults::parseFaultSpec("llm:timeout:1:claude@0-99")};
  TokenMeter meter;
  LlmClient client{&faults, meter, nullptr};

  (void)client.call(claude37Sonnet(), "c", "p", "o");
  (void)client.call(claude37Sonnet(), "c", "p", "o");
  EXPECT_EQ(client.breakerState("claude-3.7-sonnet"), BreakerState::Open);
  // The fallback model is untouched by claude's open breaker.
  EXPECT_EQ(client.breakerState("llama-3.1-70b-instruct"), BreakerState::Closed);
  EXPECT_TRUE(client.call(llama31_70b(), "c", "p", "o").ok);
}

// ---- TokenMeter wasted accounting ---------------------------------------

TEST(TokenMeter, WastedCallsTalliedSeparately) {
  TokenMeter meter;
  (void)meter.recordCall("conv", "prompt one", "ok output");
  (void)meter.recordWastedCall("conv", "prompt two", "partial");
  const UsageTotals t = meter.totals();
  EXPECT_EQ(t.calls, 1u);
  EXPECT_EQ(t.wastedCalls, 1u);
  EXPECT_GT(t.wastedInputTokens, 0u);
  EXPECT_GT(t.wastedOutputTokens, 0u);
  // Useful tallies are unaffected by the wasted call.
  TokenMeter cleanOnly;
  (void)cleanOnly.recordCall("conv", "prompt one", "ok output");
  EXPECT_EQ(t.inputTokens, cleanOnly.totals().inputTokens);
  EXPECT_EQ(t.outputTokens, cleanOnly.totals().outputTokens);
}

TEST(TokenMeter, WastedCallWarmsThePromptCache) {
  // A failed attempt still pushes the prompt into the provider-side cache,
  // so the immediate retry of the same prompt resolves from cache.
  TokenMeter meter;
  const std::string prompt(400, 'x');
  const CallRecord first = meter.recordWastedCall("conv", prompt, "");
  const CallRecord retry = meter.recordCall("conv", prompt, "out");
  EXPECT_EQ(first.cachedTokens, 0u);
  EXPECT_GT(retry.cachedTokens, 0u);
  EXPECT_EQ(retry.cachedTokens, retry.inputTokens);
}

}  // namespace
}  // namespace stellar::llm
