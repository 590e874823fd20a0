#include "llm/llm_client.hpp"

namespace stellar::llm {

namespace {

/// Simulated backoff before retry r: kBackoffBaseSeconds * 2^r seconds.
constexpr double kBackoffBaseSeconds = 1.0;

}  // namespace

LlmClient::LlmClient(const LlmFaultModel* faults, TokenMeter& meter,
                     obs::CounterRegistry* counters)
    : faults_(faults), meter_(meter), counters_(counters) {}

void LlmClient::count(const char* name, const std::string& model, double delta) {
  if (counters_ != nullptr) {
    counters_->counter(name, {{"model", model}}).add(delta);
  }
}

BreakerState LlmClient::breakerState(const std::string& model) const {
  const util::MutexLock lock{mutex_};
  const auto it = breakers_.find(model);
  return it == breakers_.end() ? BreakerState::Closed : it->second.state;
}

CallOutcome LlmClient::call(const ModelProfile& profile,
                            const std::string& conversation, const std::string& prompt,
                            const std::string& output) {
  const util::MutexLock lock{mutex_};
  CallOutcome outcome;
  const std::uint64_t callIndex = nextCall_++;

  // Fault-free fast path: exactly the bare meter's accounting, no breaker
  // bookkeeping, so a fault-free client never perturbs clean runs.
  if (faults_ == nullptr || faults_->empty()) {
    meter_.recordCall(conversation, prompt, output);
    return outcome;
  }

  Breaker& breaker = breakers_[profile.name];
  if (breaker.state == BreakerState::Open) {
    if (callIndex <
        breaker.openedAtCall + static_cast<std::uint64_t>(kBreakerCooldownCalls)) {
      // Cooling down: fail fast, nothing sent, nothing billed.
      outcome.ok = false;
      outcome.breakerOpen = true;
      count("agent.llm.breaker_short_circuits", profile.name);
      ++failedCalls_;
      return outcome;
    }
    breaker.state = BreakerState::HalfOpen;
  }

  // A half-open breaker grants a single probe attempt; retrying against a
  // provider that just tripped the breaker would defeat the point.
  const int attempts =
      breaker.state == BreakerState::HalfOpen ? 1 : kMaxRetries + 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const CallDirectives d =
        faults_->sample(profile.name, callIndex, static_cast<std::uint32_t>(attempt));
    if (d.delivered()) {
      meter_.recordCall(conversation, prompt, output);
      outcome.directives = d;
      outcome.retries = attempt;
      breaker.consecutiveFailures = 0;
      breaker.state = BreakerState::Closed;
      return outcome;
    }
    // A failed attempt still bills: the prompt was sent, and a truncated or
    // malformed response still generated (partial) output tokens. Timeouts
    // and rate limits produce no billable output.
    const bool billedOutput =
        d.transport == CallFault::Truncated || d.transport == CallFault::Malformed;
    meter_.recordWastedCall(conversation, prompt, billedOutput ? output : std::string{});
    ++wastedAttempts_;
    outcome.lastFault = d.transport;
    count(d.transport == CallFault::Timeout ? "agent.llm.timeouts"
                                            : "agent.llm.failed_attempts",
          profile.name);
    if (attempt + 1 < attempts) {
      ++outcome.retries;
      count("agent.llm.retries", profile.name);
      const double backoff =
          kBackoffBaseSeconds * static_cast<double>(1ULL << attempt);
      outcome.backoffSeconds += backoff;
      backoffSeconds_ += backoff;
    }
  }

  // Logical call failed: advance the breaker.
  outcome.ok = false;
  ++failedCalls_;
  ++breaker.consecutiveFailures;
  if (breaker.state == BreakerState::HalfOpen ||
      breaker.consecutiveFailures >= kBreakerThreshold) {
    if (breaker.state != BreakerState::Open) {
      ++breakerTrips_;
      count("agent.llm.breaker_trips", profile.name);
    }
    breaker.state = BreakerState::Open;
    breaker.openedAtCall = callIndex;
  }
  return outcome;
}

}  // namespace stellar::llm
