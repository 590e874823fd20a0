#include "faults/fault_injector.hpp"

#include <algorithm>

namespace stellar::faults {

namespace {

/// Seed of `cell`'s drop stream. Cell 0, which every one-cell run is,
/// draws from mix64(planSeed, runSeed) unmixed, so one-cell results stay
/// stable; any other cell mixes in its index.
std::uint64_t dropStreamSeed(std::uint64_t planSeed, std::uint64_t runSeed,
                             std::uint32_t cell) {
  const std::uint64_t base = util::mix64(planSeed, runSeed);
  return cell == 0 ? base : util::mix64(base, cell);
}

}  // namespace

FaultInjector::FaultInjector(sim::SimEngine& engine, const FaultPlan& plan,
                             std::size_t ostCount, std::uint64_t runSeed,
                             std::uint32_t cell)
    : engine_(engine),
      plan_(plan),
      rng_(dropStreamSeed(plan.seed, runSeed, cell)),
      ostSlowdown_(ostCount, 1.0),
      ostOutageDepth_(ostCount, 0) {}

void FaultInjector::arm() {
  for (const FaultEvent& event : plan_.events) {
    // Agent-layer faults live at the LLM inference boundary; scheduling
    // them here would perturb the event queue and break ML-FAULTFREE for
    // plans that only carry llm:* events.
    if (isLlmFault(event.kind)) {
      continue;
    }
    engine_.scheduleWindow(
        event.begin, event.end, [this, &event] { openEvent(event); },
        [this, &event] { closeEvent(event); });
  }
}

void FaultInjector::openEvent(const FaultEvent& event) {
  active_.push_back(&event);
  recompute(event.kind, event.target);
  ++windowsOpened_;
  if (counters_ != nullptr) {
    counters_->counter("faults.windows_opened").add(1.0);
  }
  edgeInstant(event, /*open=*/true);
}

void FaultInjector::closeEvent(const FaultEvent& event) {
  const auto it = std::find(active_.begin(), active_.end(), &event);
  if (it != active_.end()) {
    active_.erase(it);
  }
  recompute(event.kind, event.target);
  edgeInstant(event, /*open=*/false);
}

void FaultInjector::recompute(FaultKind kind, std::int32_t /*target*/) {
  // Edges are rare; rebuilding the affected dimension from the active list
  // keeps the cached values exact (no multiply/divide drift).
  switch (kind) {
    case FaultKind::OstDegrade:
      std::fill(ostSlowdown_.begin(), ostSlowdown_.end(), 1.0);
      for (const FaultEvent* e : active_) {
        if (e->kind != FaultKind::OstDegrade) {
          continue;
        }
        // magnitude is remaining capacity in (0, 1]; service scales 1/m.
        if (e->target == kAllTargets) {
          for (double& s : ostSlowdown_) {
            s /= e->magnitude;
          }
        } else if (static_cast<std::size_t>(e->target) < ostSlowdown_.size()) {
          ostSlowdown_[static_cast<std::size_t>(e->target)] /= e->magnitude;
        }
      }
      break;
    case FaultKind::OstOutage:
      std::fill(ostOutageDepth_.begin(), ostOutageDepth_.end(), 0u);
      for (const FaultEvent* e : active_) {
        if (e->kind != FaultKind::OstOutage) {
          continue;
        }
        if (e->target == kAllTargets) {
          for (std::uint32_t& d : ostOutageDepth_) {
            ++d;
          }
        } else if (static_cast<std::size_t>(e->target) < ostOutageDepth_.size()) {
          ++ostOutageDepth_[static_cast<std::size_t>(e->target)];
        }
      }
      break;
    case FaultKind::MdsOverload:
      mdsSlowdown_ = 1.0;
      for (const FaultEvent* e : active_) {
        if (e->kind == FaultKind::MdsOverload) {
          mdsSlowdown_ *= e->magnitude;
        }
      }
      break;
    case FaultKind::RpcDrop: {
      // Independent overlapping windows compose as survival products.
      double survive = 1.0;
      for (const FaultEvent* e : active_) {
        if (e->kind == FaultKind::RpcDrop) {
          survive *= 1.0 - e->magnitude;
        }
      }
      rpcDropProb_ = 1.0 - survive;
      break;
    }
    case FaultKind::RpcStall:
      rpcStallSeconds_ = 0.0;
      for (const FaultEvent* e : active_) {
        if (e->kind == FaultKind::RpcStall) {
          rpcStallSeconds_ += e->magnitude;
        }
      }
      break;
    case FaultKind::NoiseSpike:
      break;  // applied post-run via FaultPlan::noiseMultiplierOver()
    case FaultKind::LlmTimeout:
    case FaultKind::LlmRateLimit:
    case FaultKind::LlmTruncated:
    case FaultKind::LlmMalformed:
    case FaultKind::LlmHallucinatedKnob:
    case FaultKind::LlmOutOfRange:
    case FaultKind::LlmStaleAnalysis:
      break;  // never armed; handled by llm::LlmFaultModel
  }
}

void FaultInjector::edgeInstant(const FaultEvent& event, bool open) {
  if (!obs::tracing(tracer_)) {
    return;
  }
  tracer_->instant("faults", open ? "window-open" : "window-close",
                   {{"kind", util::Json(faultKindName(event.kind))},
                    {"target", util::Json(static_cast<std::int64_t>(event.target))},
                    {"magnitude", util::Json(event.magnitude)},
                    {"sim_time", util::Json(engine_.now())}});
}

}  // namespace stellar::faults
