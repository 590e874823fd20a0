// Metadata server model: a pool of service threads with per-op-kind costs,
// congestion latency under backlog, and deterministic jitter.
//
// Jitter draws from the model's own random stream (keyed by the run seed
// and the cell's OST offset), not the engine's: per-cell results stay
// invariant under how cells are grouped onto engine shards.
#pragma once

#include <cstdint>
#include <utility>

#include "pfs/topology.hpp"
#include "sim/engine.hpp"
#include "sim/service_center.hpp"
#include "util/rng.hpp"

namespace stellar::faults {
class FaultInjector;
}

namespace stellar::pfs {

enum class MetaOpKind : std::uint8_t { Create, Open, Stat, Unlink, Mkdir, Lock, Close };

[[nodiscard]] const char* metaOpName(MetaOpKind kind) noexcept;

class MdsModel {
 public:
  /// `seed` keys this MDS's jitter stream; callers pass a value derived
  /// from (run seed, cell identity).
  MdsModel(sim::SimEngine& engine, const ClusterSpec& cluster, std::uint64_t seed);

  MdsModel(const MdsModel&) = delete;
  MdsModel& operator=(const MdsModel&) = delete;

  /// Submits a metadata RPC that has arrived at the server.
  /// `stripeCount` scales create/unlink cost (object allocation/destroy
  /// on each stripe target).
  void submit(MetaOpKind kind, std::uint32_t stripeCount, sim::Parked onDone);

  template <sim::EventCallable F>
  void submit(MetaOpKind kind, std::uint32_t stripeCount, F&& onDone) {
    submit(kind, stripeCount, engine_.park(std::forward<F>(onDone)));
  }

  [[nodiscard]] std::uint64_t opsServed() const noexcept { return opsServed_; }
  [[nodiscard]] double busyTime() const noexcept { return threads_.busyTime(0); }

  /// Attaches (nullable, non-owning) live fault state: overload windows
  /// scale metadata service times.
  void attachFaults(const faults::FaultInjector* faults) noexcept { faults_ = faults; }

 private:
  [[nodiscard]] double baseCost(MetaOpKind kind) const noexcept;

  sim::SimEngine& engine_;
  const ClusterSpec& cluster_;
  const faults::FaultInjector* faults_ = nullptr;
  sim::ServiceCenterBank threads_;  ///< one lane: the MDS service threads
  util::Rng rng_;
  std::uint64_t opsServed_ = 0;
};

}  // namespace stellar::pfs
