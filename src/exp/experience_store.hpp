// ExperienceStore: durable cross-run memory of tuning outcomes (the layer
// STELLAR's Reflect & Summarize step implies but the paper keeps
// in-process). Every tuning run files an ExperienceRecord — workload
// fingerprint, best configuration, outcome timings, learned rules, fault
// context — and later runs on *similar* workloads recall the closest
// records to warm-start the Tuning Agent.
//
// Durability model (see DESIGN.md §5e):
//   - The store is one JSONL file of `record` lines, written only whole.
//     Stores written before verdicts rode on records also hold
//     `penalize` / `confirm` lines; load still replays them.
//   - Torn or garbage lines are skipped with a warning (file + line via
//     the util::Json error context) and counted; the store stays usable.
//   - absorb() is the one write: it files a batch of records, applies the
//     recall verdicts they carry, and compacts once.
//   - Compaction evicts records whose recalled configs kept regressing and
//     replaces the file atomically (util::replaceFile: `<store>.tmp`, then
//     a rename). A crash before the rename leaves the old generation
//     fully readable.
//   - An empty path makes the store memory-only (recall snapshots,
//     benches).
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
  std::string id;  ///< unique within a store; assigned on filing if empty
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
  /// Outcome ledger: recalls that held up / regressed.
  std::int32_t confirmations = 1;
  std::int32_t regressions = 0;
  std::vector<rules::Rule> rules;
  /// The filing run's verdict on the records it recalled, carried from the
  /// run to ExperienceStore::absorb, which applies it to `recalledIds` and
  /// strips it. Serialized (as a `recall` object) only while set.
  core::WarmStartVerdict recallVerdict = core::WarmStartVerdict::None;
  std::vector<std::string> recalledIds;

  [[nodiscard]] double bestSpeedup() const noexcept {
    return bestSeconds > 0 ? defaultSeconds / bestSeconds : 0.0;
  }

  [[nodiscard]] util::Json toJson() const;
  /// Throws util::JsonError on missing/mistyped required fields.
  [[nodiscard]] static ExperienceRecord fromJson(const util::Json& json);
};

/// Files a completed tuning run (the CLI and the tuning service call this),
/// with the run's verdict on the records it recalled.
[[nodiscard]] ExperienceRecord recordFromRun(const core::TuningRunResult& run,
                                             std::uint64_t seed, std::string model,
                                             std::string faults);

struct RecallMatch {
  ExperienceRecord record;  ///< copy: stable under concurrent appends
  double similarity = 0.0;
};

struct StoreOptions {
  obs::CounterRegistry* counters = nullptr;  ///< nullable, non-owning
};

class ExperienceStore final : public core::WarmStartProvider {
 public:
  /// Opens (and loads) the store at `path`; empty path = memory-only.
  explicit ExperienceStore(std::string path, StoreOptions options = {});

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t size() const;
  /// Corrupt JSONL lines skipped during the last load.
  [[nodiscard]] std::size_t corruptLinesSkipped() const;
  /// Snapshot copy of every live record.
  [[nodiscard]] std::vector<ExperienceRecord> records() const;

  /// The commit of a batch of finished runs: files the records in order
  /// (assigning empty ids; a record with an existing id replaces it, so
  /// the last one wins), then applies their recall verdicts, the last per
  /// filing id, so a run filed twice credits what it recalled once.
  /// Verdicts on unknown ids are ignored. The verdicts are stripped and the
  /// store compacts once: it drops stale records, puts the rest in
  /// canonical (tenant, id) order and atomically rewrites the file as pure
  /// record lines (legacy verdict lines folded in). Returns the filed ids
  /// in batch order.
  std::vector<std::string> absorb(std::vector<ExperienceRecord> batch);

  /// Top-K live records by fingerprint similarity (>= minSimilarity),
  /// most similar first; ties broken by id for determinism.
  [[nodiscard]] std::vector<RecallMatch> recall(const Fingerprint& fingerprint,
                                                std::size_t topK,
                                                double minSimilarity) const;

  // --- core::WarmStartProvider ---------------------------------------------
  [[nodiscard]] std::optional<core::WarmStartHint> warmStart(
      const agents::IoReport& report) const override;

 private:
  void loadLocked() STELLAR_REQUIRES(mutex_);
  /// Assigns an empty id, replaces a record with the same id (last wins)
  /// or adds it, and returns the filed record (valid until the next filing).
  const ExperienceRecord& fileLocked(ExperienceRecord record) STELLAR_REQUIRES(mutex_);
  /// Drops stale records, sorts the rest canonically and, unless
  /// memory-only, replaces the file with them.
  void compactLocked() STELLAR_REQUIRES(mutex_);
  void noteCounter(const char* name, double delta = 1.0) const;

  mutable util::Mutex mutex_;
  std::string path_;
  StoreOptions options_;
  std::vector<ExperienceRecord> records_ STELLAR_GUARDED_BY(mutex_);
  std::size_t corruptSkipped_ STELLAR_GUARDED_BY(mutex_) = 0;
  std::uint64_t nextId_ STELLAR_GUARDED_BY(mutex_) = 1;
};

}  // namespace stellar::exp
