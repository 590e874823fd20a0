// LlmClient: the inference boundary of the simulated agents, with the
// failure handling a real deployment needs (ISSUE 7).
//
// Every logical call runs a bounded retry loop with exponential backoff
// (backoff is simulated time, accounted as extra latency) against the
// deterministic LlmFaultModel. Failed attempts still bill tokens — they go
// to the TokenMeter's wasted_* tallies. A per-model circuit breaker trips
// after consecutive logical-call failures, short-circuits calls during a
// cooldown, then lets a single half-open probe through; success closes the
// breaker, failure re-opens it.
//
// With no fault model attached the clean path is byte-for-byte what
// TokenMeter::recordCall alone would have done, so every agent calls its
// model through a client and a fault-free client perturbs nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "llm/llm_fault_model.hpp"
#include "llm/model_profile.hpp"
#include "llm/token_meter.hpp"
#include "obs/counters.hpp"
#include "util/thread_annotations.hpp"

namespace stellar::llm {

/// Result of one logical call (after retries).
struct CallOutcome {
  bool ok = true;
  /// Content-corruption directives of the delivered attempt.
  CallDirectives directives;
  int retries = 0;                      ///< wasted attempts before the outcome
  CallFault lastFault = CallFault::None;  ///< cause when !ok
  bool breakerOpen = false;             ///< short-circuited, no attempt made
  double backoffSeconds = 0.0;          ///< simulated backoff waited
};

enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

class LlmClient {
 public:
  /// Retries per logical call (total attempts = kMaxRetries + 1).
  static constexpr int kMaxRetries = 3;
  /// Consecutive failed logical calls that trip a model's breaker.
  static constexpr int kBreakerThreshold = 2;
  /// Logical calls short-circuited while open before the half-open probe.
  static constexpr int kBreakerCooldownCalls = 2;

  /// `faults` nullable (inert) and non-owning; `counters` nullable.
  LlmClient(const LlmFaultModel* faults, TokenMeter& meter,
            obs::CounterRegistry* counters);

  /// One logical call. On success the prompt/output are metered as a normal
  /// call; every failed attempt is metered as wasted. An open breaker
  /// short-circuits without metering (nothing was sent).
  CallOutcome call(const ModelProfile& profile, const std::string& conversation,
                   const std::string& prompt, const std::string& output);

  [[nodiscard]] BreakerState breakerState(const std::string& model) const;
  [[nodiscard]] std::uint64_t callsIssued() const {
    const util::MutexLock lock{mutex_};
    return nextCall_;
  }
  [[nodiscard]] std::uint64_t breakerTrips() const {
    const util::MutexLock lock{mutex_};
    return breakerTrips_;
  }
  [[nodiscard]] std::uint64_t failedCalls() const {
    const util::MutexLock lock{mutex_};
    return failedCalls_;
  }
  [[nodiscard]] std::uint64_t wastedAttempts() const {
    const util::MutexLock lock{mutex_};
    return wastedAttempts_;
  }
  [[nodiscard]] double backoffSeconds() const {
    const util::MutexLock lock{mutex_};
    return backoffSeconds_;
  }

 private:
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    int consecutiveFailures = 0;
    std::uint64_t openedAtCall = 0;
  };

  void count(const char* name, const std::string& model, double delta = 1.0);

  const LlmFaultModel* faults_;
  TokenMeter& meter_;
  obs::CounterRegistry* counters_;
  /// One logical call is one critical section: a future multi-tenant
  /// stellard shares a client (and its breakers) across sessions, and the
  /// breaker state machine must advance atomically per call.
  mutable util::Mutex mutex_;
  std::map<std::string, Breaker> breakers_ STELLAR_GUARDED_BY(mutex_);
  std::uint64_t nextCall_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::uint64_t breakerTrips_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::uint64_t failedCalls_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::uint64_t wastedAttempts_ STELLAR_GUARDED_BY(mutex_) = 0;
  double backoffSeconds_ STELLAR_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace stellar::llm
