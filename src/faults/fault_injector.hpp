// Live fault state over a simulation run.
//
// A FaultInjector turns a FaultPlan (pure data) into O(1) state queries
// the PFS models consult on their hot paths. arm() schedules every window's
// open/close edges through the SimEngine's ordinary event queue, so edges
// order deterministically (FIFO sequence numbers) against client and server
// events — the determinism contract in DESIGN.md rests on this.
//
// Determinism of drop sampling: the injector owns its own Rng, keyed by
// the plan seed, the run seed and the federation cell it serves, and only
// draws while a drop window is open, so a plan whose windows miss the run
// draws nothing and perturbs no other stream — only its window edges add
// engine events. Cell 0 draws from mix64(plan.seed, runSeed), the stream
// of a one-cell run; every other cell draws a stream of its own, so the
// cells of a federated run lose different RPCs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace stellar::faults {

class FaultInjector {
 public:
  /// The plan must outlive the injector. `ostCount` sizes the per-OST
  /// state tables; events targeting OSTs past it are ignored. `cell` is
  /// the federation cell whose engine this injector drives.
  FaultInjector(sim::SimEngine& engine, const FaultPlan& plan, std::size_t ostCount,
                std::uint64_t runSeed, std::uint32_t cell = 0);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches (nullable) observability sinks: one "faults" instant per
  /// window edge plus faults.* counters.
  void attachObservability(obs::Tracer* tracer, obs::CounterRegistry* counters) noexcept {
    tracer_ = tracer;
    counters_ = counters;
  }

  /// Schedules every window edge on the engine. Call once, before client
  /// start-of-run events are scheduled, so edge ordering is stable.
  void arm();

  // ---- O(1) hot-path queries ------------------------------------------

  /// Service-time multiplier (>= 1) for the given OST right now.
  [[nodiscard]] double ostSlowdown(std::size_t ost) const noexcept {
    return ost < ostSlowdown_.size() ? ostSlowdown_[ost] : 1.0;
  }

  /// True while an outage window covering this OST is open.
  [[nodiscard]] bool ostDown(std::size_t ost) const noexcept {
    return ost < ostOutageDepth_.size() && ostOutageDepth_[ost] > 0;
  }

  /// Metadata service-time multiplier (>= 1) right now.
  [[nodiscard]] double mdsSlowdown() const noexcept { return mdsSlowdown_; }

  /// Combined per-attempt RPC loss probability right now (0 when no drop
  /// window is open).
  [[nodiscard]] double rpcDropProbability() const noexcept { return rpcDropProb_; }

  /// Extra one-way RPC delivery delay right now, seconds.
  [[nodiscard]] double rpcStallSeconds() const noexcept { return rpcStallSeconds_; }

  /// Bernoulli draw against rpcDropProbability(). Draws from the
  /// injector's private stream, and only when a drop window is open.
  [[nodiscard]] bool sampleRpcDrop() const noexcept {
    return rpcDropProb_ > 0.0 && rng_.chance(rpcDropProb_);
  }

  [[nodiscard]] std::uint64_t windowsOpened() const noexcept { return windowsOpened_; }

 private:
  void openEvent(const FaultEvent& event);
  void closeEvent(const FaultEvent& event);
  void recompute(FaultKind kind, std::int32_t target);
  void edgeInstant(const FaultEvent& event, bool open);

  sim::SimEngine& engine_;
  const FaultPlan& plan_;
  mutable util::Rng rng_;  ///< drop sampling; the injector's own stream

  // Active-event lists per dimension; recompute() folds them into the
  // cached O(1) values below. Edges are rare, so O(active) per edge is
  // fine and avoids floating-point drift from multiply/divide stacks.
  std::vector<const FaultEvent*> active_;

  std::vector<double> ostSlowdown_;       ///< per-OST, >= 1
  std::vector<std::uint32_t> ostOutageDepth_;
  double mdsSlowdown_ = 1.0;
  double rpcDropProb_ = 0.0;
  double rpcStallSeconds_ = 0.0;

  std::uint64_t windowsOpened_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::CounterRegistry* counters_ = nullptr;
};

}  // namespace stellar::faults
