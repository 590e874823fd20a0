// FleetStore: the stellard service's concurrent-writer mode for the
// ExperienceStore (DESIGN.md §9d).
//
// The single-writer store (PR 3) is kept exactly as-is as the durable
// "base" generation. Around it:
//   - every worker thread APPENDS finished-session records, each carrying
//     its run's verdict on what it recalled, to a per-tenant shard journal
//     (`<store>.tenant-<id>`) — short critical section, no contention with
//     recalls;
//   - every engine run RECALLS from an immutable snapshot of the base
//     store, published through std::atomic<std::shared_ptr<const ...>> —
//     lock-free reads, safe against a concurrent commit;
//   - a single-writer COMMIT (service idle) gathers one batch — the shards,
//     listed and read under the lock appends take — has the base store
//     absorb it (records, then their verdicts, then one compaction),
//     deletes the shards, then builds a fresh snapshot and swaps the
//     pointer.
//
// Because the snapshot only ever changes at commit points (never while a
// session is in flight), a session's result is a pure function of its cell
// spec and the snapshot generation — the keystone of the service
// determinism law (same schedule ⇒ byte-identical results at any worker
// count).
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/experience_store.hpp"
#include "util/thread_annotations.hpp"

namespace stellar::service {

/// `<basePath>.tenant-<tenant>`: the shard journal the next commit of the
/// store at `basePath` absorbs.
[[nodiscard]] std::string tenantShardPath(const std::string& basePath,
                                          const std::string& tenant);

/// Appends `record` as one line to the shard journal at `shardPath`
/// (util::appendJsonLine, which starts it on a fresh line after a torn
/// tail). The one writer of shard lines: FleetStore::appendRecord and
/// `stellar_cli --tenant` both call it.
void appendShardLine(const std::string& shardPath, const exp::ExperienceRecord& record);

class FleetStore {
 public:
  /// Opens the base store at `basePath` and publishes the first snapshot.
  /// Empty path = memory-only (appends collect in memory until commit).
  /// Records whose id is in `recallExcludes` stay in the base store but are
  /// left out of every published snapshot.
  explicit FleetStore(std::string basePath, exp::StoreOptions options = {},
                      std::set<std::string> recallExcludes = {});

  /// Records in the committed base generation.
  [[nodiscard]] std::size_t baseSize() const { return base_.size(); }

  /// Lock-free read of the current immutable recall snapshot.
  [[nodiscard]] std::shared_ptr<const exp::ExperienceStore> snapshot() const;

  /// Concurrent-writer append of a finished session's record to the
  /// tenant's shard journal. Durable immediately (single flushed line);
  /// visible to recalls, and its recall verdict applied, only after the
  /// next commit().
  void appendRecord(const std::string& tenant, exp::ExperienceRecord record);

  /// Single-writer commit of one batch: the pending records (memory mode)
  /// or every `<name>.tenant-*` shard in the store directory, in path order
  /// (file mode). The base store absorbs the batch, the shards are
  /// deleted, and a fresh snapshot is swapped in. Corrupt shard lines are
  /// logged and skipped. The caller must guarantee no session is in
  /// flight. Returns the number of records absorbed.
  std::size_t commit();

 private:
  void publishSnapshot();
  void noteCounter(const char* name, double delta = 1.0) const;

  std::string basePath_;
  exp::StoreOptions options_;
  std::set<std::string> recallExcludes_;
  exp::ExperienceStore base_;  // thread-safe on its own mutex
  std::atomic<std::shared_ptr<const exp::ExperienceStore>> snapshot_;
  /// Serializes appends against a commit's gather-absorb-delete.
  mutable util::Mutex mutex_;
  /// Memory-only mode: pending appends by tenant (file mode uses shards).
  std::map<std::string, std::vector<exp::ExperienceRecord>> pending_
      STELLAR_GUARDED_BY(mutex_);
};

}  // namespace stellar::service
