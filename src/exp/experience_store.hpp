// ExperienceStore: durable cross-run memory of tuning outcomes (the layer
// STELLAR's Reflect & Summarize step implies but the paper keeps
// in-process). Every tuning run files an ExperienceRecord — workload
// fingerprint, best configuration, outcome timings, learned rules, fault
// context — and later runs on *similar* workloads recall the closest
// records to warm-start the Tuning Agent.
//
// Durability model (see DESIGN.md §5e):
//   - The store is one JSONL file: `record` lines plus a `penalize` /
//     `confirm` journal that is replayed on load. Appends are single lines
//     flushed immediately, so a crash can at worst tear the final line.
//   - Torn or garbage lines are skipped with a warning (file + line via
//     the util::Json error context) and counted; the store stays usable.
//   - Compaction folds the journal into the records and atomically
//     replaces the file (write temp generation + rename), evicting records
//     whose recalled configs kept regressing. A crash between the temp
//     write and the rename leaves the old generation fully readable.
//   - An empty path makes the store memory-only (tests, benches).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/fingerprint.hpp"
#include "obs/counters.hpp"
#include "pfs/params.hpp"
#include "rules/rules.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace stellar::exp {

/// One filed tuning experience.
struct ExperienceRecord {
  std::string id;  ///< unique within a store; assigned on append if empty
  std::string workload;
  Fingerprint fingerprint;
  pfs::PfsConfig bestConfig;
  double defaultSeconds = 0.0;
  double bestSeconds = 0.0;
  std::size_t attempts = 0;
  std::string endReason;
  /// Fault scenario/spec active while the experience was gathered ("" =
  /// clean weather) — recalls can tell tuned-under-fire configs apart.
  std::string faults;
  /// Tenant that filed the experience ("" = untagged single-user runs).
  /// Provenance only: recall is deliberately cross-tenant, so one tenant's
  /// first session warm-starts from the whole fleet's history.
  std::string tenant;
  std::string model;  ///< tuning-agent model profile name
  std::uint64_t seed = 0;
  /// Outcome ledger: recalls that held up / regressed (journal-updated).
  std::int32_t confirmations = 1;
  std::int32_t regressions = 0;
  std::vector<rules::Rule> rules;

  [[nodiscard]] double bestSpeedup() const noexcept {
    return bestSeconds > 0 ? defaultSeconds / bestSeconds : 0.0;
  }

  [[nodiscard]] util::Json toJson() const;
  /// Throws util::JsonError on missing/mistyped required fields.
  [[nodiscard]] static ExperienceRecord fromJson(const util::Json& json);
};

/// Files a completed tuning run (the CLI and the tuning service call this).
[[nodiscard]] ExperienceRecord recordFromRun(const core::TuningRunResult& run,
                                             std::uint64_t seed, std::string model,
                                             std::string faults);

struct RecallMatch {
  ExperienceRecord record;  ///< copy: stable under concurrent appends
  double similarity = 0.0;
};

struct StoreOptions {
  /// Minimum fingerprint similarity for a record to be recalled. The
  /// default separates same-family workloads (> 0.99 across seeds/scales)
  /// from different I/O characters (< 0.9, e.g. IOR vs MDWorkbench).
  double minSimilarity = 0.95;
  /// Records merged into one warm-start hint.
  std::size_t topK = 3;
  /// A record is stale (skipped by recall, dropped at compaction) once
  /// regressions >= evictionRegressions + (confirmations - 1): every
  /// confirmation beyond the initial one buys one extra strike.
  std::int32_t evictionRegressions = 2;
  obs::CounterRegistry* counters = nullptr;  ///< nullable, non-owning
};

class ExperienceStore final : public core::WarmStartProvider {
 public:
  /// Opens (and loads) the store at `path`; empty path = memory-only.
  explicit ExperienceStore(std::string path, StoreOptions options = {});

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const StoreOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t size() const;
  /// Corrupt JSONL lines skipped during the last load.
  [[nodiscard]] std::size_t corruptLinesSkipped() const;
  /// Snapshot copy of every live record.
  [[nodiscard]] std::vector<ExperienceRecord> records() const;

  /// Files a record (assigning an id if empty) and appends it durably.
  /// A record with an existing id replaces the previous version in memory
  /// (last-wins, which compaction makes durable). Returns the id.
  std::string append(ExperienceRecord record);

  /// Journal a negative/positive recall outcome for `id`; unknown ids are
  /// ignored (the record may have been evicted by a concurrent compaction).
  void penalize(const std::string& id);
  void confirm(const std::string& id);

  /// Top-K live records by fingerprint similarity (>= minSimilarity),
  /// most similar first; ties broken by id for determinism.
  [[nodiscard]] std::vector<RecallMatch> recall(const Fingerprint& fingerprint,
                                                std::size_t topK,
                                                double minSimilarity) const;

  /// Test-only crash injection for the compaction protocol.
  struct CompactionHooks {
    /// Simulate dying after writing the new generation but before the
    /// atomic rename: the store file must remain the old generation.
    bool crashBeforeRename = false;
  };

  /// Atomically rewrites the file as pure record lines (journal folded
  /// in), dropping stale records and putting the rest in canonical
  /// (tenant, id) order. Memory-only stores get the eviction and the order
  /// but write nothing.
  void compact() { compact(CompactionHooks{}); }
  void compact(const CompactionHooks& hooks);

  /// Single-writer commit of shard journals: every regular file in `dir`
  /// whose basename starts with `filePrefix`, in sorted path order. Loads
  /// every shard, dedups by id against the store (last shard wins),
  /// compacts, and deletes the shard files. Returns how many records were
  /// absorbed. The directory listing happens *under the store lock*, so a
  /// shard journal a concurrent writer creates right up to the scan is
  /// absorbed instead of silently skipped until the next compaction.
  std::size_t absorbShardDir(const std::string& dir, const std::string& filePrefix);

  // --- core::WarmStartProvider ---------------------------------------------
  [[nodiscard]] std::optional<core::WarmStartHint> warmStart(
      const agents::IoReport& report) const override;
  void observeWarmStartOutcome(const std::vector<std::string>& sourceIds,
                               bool regressed, bool confirmed) override;

 private:
  [[nodiscard]] bool stale(const ExperienceRecord& record) const noexcept;
  void loadLocked() STELLAR_REQUIRES(mutex_);
  std::size_t absorbShardLocked(const std::string& shard) STELLAR_REQUIRES(mutex_);
  void appendLineLocked(const util::Json& line) STELLAR_REQUIRES(mutex_);
  [[nodiscard]] ExperienceRecord* findLocked(const std::string& id)
      STELLAR_REQUIRES(mutex_);
  void noteCounter(const char* name, double delta = 1.0) const;

  mutable util::Mutex mutex_;
  std::string path_;
  StoreOptions options_;
  std::vector<ExperienceRecord> records_ STELLAR_GUARDED_BY(mutex_);
  std::size_t corruptSkipped_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::uint64_t nextId_ STELLAR_GUARDED_BY(mutex_) = 1;
};

}  // namespace stellar::exp
