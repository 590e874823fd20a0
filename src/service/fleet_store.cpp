#include "service/fleet_store.hpp"

#include <cstdio>
#include <utility>

#include "util/file.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace stellar::service {

namespace {

constexpr const char* kComponent = "service.store";

/// Appends every parseable record line of `shard` to `batch`; corrupt
/// lines (a torn tail after a kill, garbage) are logged and skipped.
void readShard(const std::string& shard, std::vector<exp::ExperienceRecord>& batch) {
  std::size_t lineNo = 0;
  for (const std::string& line : util::split(util::readFile(shard), '\n')) {
    ++lineNo;
    if (util::trim(line).empty()) {
      continue;
    }
    try {
      batch.push_back(exp::ExperienceRecord::fromJson(util::Json::parse(line)));
    } catch (const util::JsonError& e) {
      util::logLine(util::LogLevel::Warn, kComponent,
                    shard + ":" + std::to_string(lineNo) +
                        ": skipping corrupt shard line (" + e.what() + ")");
    }
  }
}

}  // namespace

std::string tenantShardPath(const std::string& basePath, const std::string& tenant) {
  return basePath + ".tenant-" + tenant;
}

void appendShardLine(const std::string& shardPath, const exp::ExperienceRecord& record) {
  util::appendToFile(shardPath, record.toJson().dump() + "\n");
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

std::string FleetStore::tenantShardPath(const std::string& tenant) const {
  return service::tenantShardPath(basePath_, tenant);
}

void FleetStore::appendRecord(const std::string& tenant,
                              exp::ExperienceRecord record) {
  record.tenant = tenant;
  const util::MutexLock lock{mutex_};
  if (basePath_.empty()) {
    pending_[tenant].push_back(std::move(record));
  } else {
    appendShardLine(tenantShardPath(tenant), record);
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
        readShard(path, batch);
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
