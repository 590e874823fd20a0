#include "service/fleet_store.hpp"

#include <algorithm>
#include <utility>

#include "util/file.hpp"

namespace stellar::service {

namespace {

void splitPath(const std::string& path, std::string& dir, std::string& name) {
  const std::size_t slash = path.find_last_of('/');
  dir = slash == std::string::npos ? "." : path.substr(0, slash);
  name = slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

FleetStore::FleetStore(std::string basePath, exp::StoreOptions options,
                       std::set<std::string> recallExcludes)
    : basePath_(std::move(basePath)), options_(options),
      recallExcludes_(std::move(recallExcludes)), base_(basePath_, options) {
  publishSnapshot();
}

std::shared_ptr<const exp::ExperienceStore> FleetStore::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

std::string FleetStore::tenantShardPath(const std::string& tenant) const {
  return basePath_ + ".tenant-" + tenant;
}

void FleetStore::appendRecord(const std::string& tenant,
                              exp::ExperienceRecord record) {
  record.tenant = tenant;
  if (basePath_.empty()) {
    const util::MutexLock lock{mutex_};
    pending_[tenant].push_back(std::move(record));
  } else {
    const std::string line = record.toJson().dump() + "\n";
    const util::MutexLock lock{mutex_};
    util::appendToFile(tenantShardPath(tenant), line);
  }
  noteCounter("service.store.shard_appends");
}

void FleetStore::deferOutcome(std::vector<std::string> sourceIds, bool regressed,
                              bool confirmed) {
  const util::MutexLock lock{mutex_};
  outcomes_.push_back(Outcome{std::move(sourceIds), regressed, confirmed});
}

std::size_t FleetStore::commit() {
  std::size_t absorbed = 0;
  if (basePath_.empty()) {
    std::map<std::string, std::vector<exp::ExperienceRecord>> pending;
    {
      const util::MutexLock lock{mutex_};
      pending.swap(pending_);
    }
    // Tenant order, then append order within a tenant: the order a
    // file-mode commit absorbs the tenants' shard journals in, so a re-run
    // of a cell wins the same way in both modes. Compaction then puts the
    // records in canonical (tenant, id) order.
    for (auto& [tenant, records] : pending) {
      for (exp::ExperienceRecord& record : records) {
        (void)base_.append(std::move(record));
        ++absorbed;
      }
    }
    base_.compact();
  } else {
    std::string dir;
    std::string name;
    splitPath(basePath_, dir, name);
    absorbed = base_.absorbShardDir(dir, name + ".tenant-");
  }

  std::vector<Outcome> outcomes;
  {
    const util::MutexLock lock{mutex_};
    outcomes.swap(outcomes_);
  }
  // Deterministic order: penalize/confirm are commutative increments, but a
  // sorted journal keeps the base-store file reproducible too.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              if (a.sourceIds != b.sourceIds) {
                return a.sourceIds < b.sourceIds;
              }
              if (a.regressed != b.regressed) {
                return a.regressed < b.regressed;
              }
              return a.confirmed < b.confirmed;
            });
  for (const Outcome& outcome : outcomes) {
    base_.observeWarmStartOutcome(outcome.sourceIds, outcome.regressed,
                                  outcome.confirmed);
  }
  if (!outcomes.empty()) {
    base_.compact();
  }

  publishSnapshot();
  noteCounter("service.store.absorbed", static_cast<double>(absorbed));
  return absorbed;
}

void FleetStore::publishSnapshot() {
  auto snap = std::make_shared<exp::ExperienceStore>("", options_);
  for (exp::ExperienceRecord& record : base_.records()) {
    if (recallExcludes_.count(record.id) == 0) {
      (void)snap->append(std::move(record));
    }
  }
  snapshot_.store(std::shared_ptr<const exp::ExperienceStore>(std::move(snap)),
                  std::memory_order_release);
  noteCounter("service.store.snapshot_swaps");
}

void FleetStore::noteCounter(const char* name, double delta) const {
  if (options_.counters != nullptr) {
    options_.counters->counter(name).add(delta);
  }
}

}  // namespace stellar::service
