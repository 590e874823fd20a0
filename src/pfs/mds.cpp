#include "pfs/mds.hpp"

#include <algorithm>
#include <utility>

#include "faults/fault_injector.hpp"

namespace stellar::pfs {

const char* metaOpName(MetaOpKind kind) noexcept {
  switch (kind) {
    case MetaOpKind::Create: return "create";
    case MetaOpKind::Open: return "open";
    case MetaOpKind::Stat: return "stat";
    case MetaOpKind::Unlink: return "unlink";
    case MetaOpKind::Mkdir: return "mkdir";
    case MetaOpKind::Lock: return "lock";
    case MetaOpKind::Close: return "close";
  }
  return "?";
}

MdsModel::MdsModel(sim::SimEngine& engine, const ClusterSpec& cluster,
                   std::uint64_t seed)
    : engine_(engine), cluster_(cluster),
      threads_(engine, 1, cluster.mds.serviceThreads),
      rng_(util::mix64(seed, 0x4D45D5ULL)) {}

double MdsModel::baseCost(MetaOpKind kind) const noexcept {
  const MdsSpec& mds = cluster_.mds;
  switch (kind) {
    case MetaOpKind::Create: return mds.createCost;
    case MetaOpKind::Open: return mds.openCost;
    case MetaOpKind::Stat: return mds.statCost;
    case MetaOpKind::Unlink: return mds.unlinkCost;
    case MetaOpKind::Mkdir: return mds.mkdirCost;
    case MetaOpKind::Lock: return mds.lockCost;
    case MetaOpKind::Close: return mds.openCost * 0.5;
  }
  return mds.statCost;
}

void MdsModel::submit(MetaOpKind kind, std::uint32_t stripeCount,
                      sim::Parked onDone) {
  ++opsServed_;
  double service = baseCost(kind);
  // Creating / destroying a striped file touches one object per stripe
  // target; the MDT orchestrates those OST object operations.
  if (kind == MetaOpKind::Create && stripeCount > 1) {
    service *= 1.0 + 0.60 * static_cast<double>(stripeCount - 1);
  }
  if (kind == MetaOpKind::Unlink && stripeCount > 1) {
    service *= 1.0 + 0.30 * static_cast<double>(stripeCount - 1);
  }
  service += cluster_.mds.congestionPenalty *
             static_cast<double>(std::min<std::size_t>(threads_.queued(0), 32));
  service *= rng_.uniform(0.9, 1.1);
  if (faults_ != nullptr) {
    service *= faults_->mdsSlowdown();
  }
  threads_.submit(0, service, std::move(onDone));
}

}  // namespace stellar::pfs
