// FleetStore: the stellard service's concurrent-writer mode for the
// ExperienceStore (DESIGN.md §9d).
//
// The single-writer store (PR 3) is kept exactly as-is as the durable
// "base" generation. Around it:
//   - every worker thread APPENDS finished-session records to a per-tenant
//     shard journal (`<store>.tenant-<id>`) — short critical section, no
//     contention with recalls;
//   - every engine run RECALLS from an immutable snapshot of the base
//     store, published through std::atomic<std::shared_ptr<const ...>> —
//     lock-free reads, safe against a concurrent commit;
//   - a single-writer COMMIT (service idle) re-lists the shard directory
//     under the base-store lock, absorbs the shards, folds in deferred
//     warm-start outcomes, compacts, then builds a fresh snapshot and
//     swaps the pointer.
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

#include "core/engine.hpp"
#include "exp/experience_store.hpp"
#include "util/thread_annotations.hpp"

namespace stellar::service {

class FleetStore {
 public:
  /// Opens the base store at `basePath` and publishes the first snapshot.
  /// Empty path = memory-only (appends collect in memory until commit).
  /// Records whose id is in `recallExcludes` stay in the base store but are
  /// left out of every published snapshot.
  explicit FleetStore(std::string basePath, exp::StoreOptions options = {},
                      std::set<std::string> recallExcludes = {});

  [[nodiscard]] const std::string& basePath() const noexcept { return basePath_; }
  /// Records in the committed base generation.
  [[nodiscard]] std::size_t baseSize() const { return base_.size(); }

  /// Lock-free read of the current immutable recall snapshot.
  [[nodiscard]] std::shared_ptr<const exp::ExperienceStore> snapshot() const;

  /// Shard journal path for `tenant` (meaningless for memory-only stores).
  [[nodiscard]] std::string tenantShardPath(const std::string& tenant) const;

  /// Concurrent-writer append of a finished session's record to the
  /// tenant's shard journal. Durable immediately (single flushed line);
  /// visible to recalls only after the next commit().
  void appendRecord(const std::string& tenant, exp::ExperienceRecord record);

  /// Queue a warm-start outcome observed against the current snapshot;
  /// applied to the base store (sorted, deterministic) at commit().
  void deferOutcome(std::vector<std::string> sourceIds, bool regressed,
                    bool confirmed);

  /// Single-writer commit: absorb every `<name>.tenant-*` shard in the
  /// store directory (listed under the base-store lock — satellite fix for
  /// shards appearing mid-scan), fold in deferred outcomes, compact, and
  /// swap in a fresh snapshot. The caller must guarantee no session is in
  /// flight. Returns the number of records absorbed.
  std::size_t commit();

 private:
  struct Outcome {
    std::vector<std::string> sourceIds;
    bool regressed = false;
    bool confirmed = false;
  };

  void publishSnapshot();
  void noteCounter(const char* name, double delta = 1.0) const;

  std::string basePath_;
  exp::StoreOptions options_;
  std::set<std::string> recallExcludes_;
  exp::ExperienceStore base_;  // thread-safe on its own mutex
  std::atomic<std::shared_ptr<const exp::ExperienceStore>> snapshot_;
  mutable util::Mutex mutex_;
  /// Memory-only mode: pending appends by tenant (file mode uses shards).
  std::map<std::string, std::vector<exp::ExperienceRecord>> pending_
      STELLAR_GUARDED_BY(mutex_);
  std::vector<Outcome> outcomes_ STELLAR_GUARDED_BY(mutex_);
};

/// Per-run WarmStartProvider handed to each engine: recalls from the
/// snapshot pinned at dispatch (so even a mid-run commit — which the
/// service never performs — could not change what this run sees) and
/// defers outcome feedback to the fleet store's next commit.
class SnapshotRecallProvider final : public core::WarmStartProvider {
 public:
  SnapshotRecallProvider(std::shared_ptr<const exp::ExperienceStore> snapshot,
                         FleetStore* fleet)
      : snapshot_(std::move(snapshot)), fleet_(fleet) {}

  [[nodiscard]] std::optional<core::WarmStartHint> warmStart(
      const agents::IoReport& report) const override {
    return snapshot_ == nullptr ? std::nullopt : snapshot_->warmStart(report);
  }

  void observeWarmStartOutcome(const std::vector<std::string>& sourceIds,
                               bool regressed, bool confirmed) override {
    if ((regressed || confirmed) && fleet_ != nullptr) {
      fleet_->deferOutcome(sourceIds, regressed, confirmed);
    }
  }

 private:
  std::shared_ptr<const exp::ExperienceStore> snapshot_;
  FleetStore* fleet_;
};

}  // namespace stellar::service
