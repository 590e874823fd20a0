#include "service/fleet_store.hpp"

#include <cstdio>
#include <utility>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace stellar::service {

namespace {
constexpr const char* kComponent = "service.store";
}  // namespace

std::string tenantShardPath(const std::string& basePath, const std::string& tenant) {
  return basePath + ".tenant-" + tenant;
}

void appendShardLine(const std::string& shardPath, const exp::ExperienceRecord& record) {
  util::appendJsonLine(shardPath, record.toJson());
}

FleetStore::FleetStore(std::string basePath, exp::StoreOptions options,
                       std::set<std::string> recallExcludes)
    : basePath_(std::move(basePath)), options_(options),
      recallExcludes_(std::move(recallExcludes)), base_(basePath_, options) {
  publishSnapshot();
}

std::shared_ptr<const exp::ExperienceStore> FleetStore::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

void FleetStore::appendRecord(const std::string& tenant,
                              exp::ExperienceRecord record) {
  record.tenant = tenant;
  const util::MutexLock lock{mutex_};
  if (basePath_.empty()) {
    pending_[tenant].push_back(std::move(record));
  } else {
    appendShardLine(tenantShardPath(basePath_, tenant), record);
  }
  noteCounter("service.store.shard_appends");
}

std::size_t FleetStore::commit() {
  // Held throughout: an append can land neither between reading a shard
  // and deleting it nor in a batch half gathered.
  const util::MutexLock lock{mutex_};
  std::vector<exp::ExperienceRecord> batch;
  std::vector<std::string> shards;
  if (basePath_.empty()) {
    // Tenant order, then append order within a tenant: the order a
    // file-mode commit reads the tenants' shard journals in, so a re-run
    // of a cell wins the same way in both modes.
    for (auto& [tenant, records] : pending_) {
      for (exp::ExperienceRecord& record : records) {
        batch.push_back(std::move(record));
      }
    }
    pending_.clear();
  } else {
    const std::size_t slash = basePath_.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : basePath_.substr(0, slash);
    const std::string prefix = basePath_.substr(slash + 1) + ".tenant-";
    // listDir returns sorted paths, so the batch order (and therefore
    // last-wins dedup) is deterministic.
    for (const std::string& path : util::listDir(dir)) {
      if (util::startsWith(path.substr(path.find_last_of('/') + 1), prefix)) {
        util::forEachJsonLine(path, kComponent, [&batch](const util::Json& doc) {
          batch.push_back(exp::ExperienceRecord::fromJson(doc));
        });
        shards.push_back(path);
      }
    }
  }
  const std::size_t absorbed = base_.absorb(std::move(batch)).size();
  // The new generation is renamed in before the shards go: a kill in
  // between re-absorbs them at the next commit, where the records dedup by
  // id and only their verdicts count twice.
  for (const std::string& shard : shards) {
    (void)std::remove(shard.c_str());
  }
  publishSnapshot();
  noteCounter("service.store.absorbed", static_cast<double>(absorbed));
  return absorbed;
}

void FleetStore::publishSnapshot() {
  std::vector<exp::ExperienceRecord> records = base_.records();
  std::erase_if(records, [this](const exp::ExperienceRecord& record) {
    return recallExcludes_.count(record.id) != 0;
  });
  auto snap = std::make_shared<exp::ExperienceStore>("", options_);
  (void)snap->absorb(std::move(records));
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
