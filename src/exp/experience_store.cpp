#include "exp/experience_store.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "util/file.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace stellar::exp {

namespace {

constexpr const char* kComponent = "exp.store";

util::Json rulesToJson(const std::vector<rules::Rule>& rules) {
  util::Json arr = util::Json::makeArray();
  for (const rules::Rule& rule : rules) {
    arr.push(rule.toJson());
  }
  return arr;
}

std::vector<rules::Rule> rulesFromJson(const util::Json& json) {
  std::vector<rules::Rule> rules;
  for (const util::Json& r : json.asArray()) {
    rules.push_back(rules::Rule::fromJson(r));
  }
  return rules;
}

}  // namespace

util::Json ExperienceRecord::toJson() const {
  util::Json root = util::Json::makeObject();
  root.set("type", "record");
  root.set("id", id);
  root.set("workload", workload);
  root.set("fingerprint", fingerprint.toJson());
  root.set("best_config", bestConfig.toJson());
  root.set("default_seconds", defaultSeconds);
  root.set("best_seconds", bestSeconds);
  root.set("attempts", static_cast<std::int64_t>(attempts));
  root.set("end_reason", endReason);
  root.set("faults", faults);
  root.set("tenant", tenant);
  root.set("model", model);
  root.set("seed", static_cast<std::int64_t>(seed));
  root.set("confirmations", static_cast<std::int64_t>(confirmations));
  root.set("regressions", static_cast<std::int64_t>(regressions));
  root.set("rules", rulesToJson(rules));
  return root;
}

ExperienceRecord ExperienceRecord::fromJson(const util::Json& json) {
  ExperienceRecord rec;
  rec.id = json.at("id").asString();
  rec.workload = json.at("workload").asString();
  rec.fingerprint = Fingerprint::fromJson(json.at("fingerprint"));
  rec.bestConfig = pfs::PfsConfig::fromJson(json.at("best_config"));
  rec.defaultSeconds = json.at("default_seconds").asNumber();
  rec.bestSeconds = json.at("best_seconds").asNumber();
  rec.attempts = json.getInteger<std::size_t>("attempts", 0);
  rec.endReason = json.getString("end_reason");
  rec.faults = json.getString("faults");
  rec.tenant = json.getString("tenant");
  rec.model = json.getString("model");
  rec.seed = json.getInteger<std::uint64_t>("seed", 0);
  rec.confirmations = json.getInteger<std::int32_t>("confirmations", 1);
  rec.regressions = json.getInteger<std::int32_t>("regressions", 0);
  if (json.contains("rules")) {
    rec.rules = rulesFromJson(json.at("rules"));
  }
  return rec;
}

ExperienceRecord recordFromRun(const core::TuningRunResult& run, std::uint64_t seed,
                               std::string model, std::string faults) {
  ExperienceRecord rec;
  rec.workload = run.workload;
  if (run.hasReport) {
    rec.fingerprint = fingerprintOf(run.report);
  }
  rec.bestConfig = run.bestConfig;
  rec.defaultSeconds = run.defaultSeconds;
  rec.bestSeconds = run.bestSeconds;
  rec.attempts = run.attempts.size();
  rec.endReason = run.endReason;
  rec.faults = std::move(faults);
  rec.model = std::move(model);
  rec.seed = seed;
  rec.rules = run.learnedRules;
  return rec;
}

// ------------------------------------------------------------------ store --

ExperienceStore::ExperienceStore(std::string path, StoreOptions options)
    : path_(std::move(path)), options_(options) {
  const util::MutexLock lock{mutex_};
  loadLocked();
}

bool ExperienceStore::stale(const ExperienceRecord& record) const noexcept {
  // Every confirmation beyond the initial one buys one extra strike before
  // the record is considered misleading.
  return record.regressions >=
         options_.evictionRegressions + std::max(0, record.confirmations - 1);
}

void ExperienceStore::noteCounter(const char* name, double delta) const {
  if (options_.counters != nullptr) {
    options_.counters->counter(name).add(delta);
  }
}

void ExperienceStore::loadLocked() {
  records_.clear();
  corruptSkipped_ = 0;
  if (path_.empty() || !util::fileExists(path_)) {
    return;
  }
  const std::string contents = util::readFile(path_);
  std::size_t lineNo = 0;
  for (const std::string& line : util::split(contents, '\n')) {
    ++lineNo;
    if (util::trim(line).empty()) {
      continue;
    }
    try {
      const util::Json doc = util::Json::parse(line);
      const std::string type = doc.getString("type");
      if (type == "record") {
        ExperienceRecord rec = ExperienceRecord::fromJson(doc);
        if (ExperienceRecord* existing = findLocked(rec.id)) {
          *existing = std::move(rec);  // last write wins (re-appended id)
        } else {
          records_.push_back(std::move(rec));
        }
      } else if (type == "penalize" || type == "confirm") {
        if (ExperienceRecord* rec = findLocked(doc.at("id").asString())) {
          (type == "penalize" ? rec->regressions : rec->confirmations) += 1;
        }
      } else {
        throw util::JsonError("unknown line type '" + type + "'");
      }
    } catch (const util::JsonError& e) {
      // Torn tail line after a crash, or plain corruption: skip it, keep
      // the store usable, and say exactly where the damage is.
      ++corruptSkipped_;
      util::logLine(util::LogLevel::Warn, kComponent,
                    path_ + ":" + std::to_string(lineNo) + ": skipping corrupt line (" +
                        e.what() + ")");
    }
  }
  noteCounter("exp.store.corrupt_lines", static_cast<double>(corruptSkipped_));
  noteCounter("exp.store.records_loaded", static_cast<double>(records_.size()));

  // Seed id assignment past every numeric suffix already in use.
  for (const ExperienceRecord& rec : records_) {
    if (util::startsWith(rec.id, "exp-")) {
      const std::uint64_t n = std::strtoull(rec.id.c_str() + 4, nullptr, 10);
      nextId_ = std::max(nextId_, n + 1);
    }
  }
}

ExperienceRecord* ExperienceStore::findLocked(const std::string& id) {
  for (ExperienceRecord& rec : records_) {
    if (rec.id == id) {
      return &rec;
    }
  }
  return nullptr;
}

void ExperienceStore::appendLineLocked(const util::Json& line) {
  if (path_.empty()) {
    return;  // memory-only store
  }
  util::appendToFile(path_, line.dump() + "\n");
}

std::size_t ExperienceStore::size() const {
  const util::MutexLock lock{mutex_};
  return records_.size();
}

std::size_t ExperienceStore::corruptLinesSkipped() const {
  const util::MutexLock lock{mutex_};
  return corruptSkipped_;
}

std::vector<ExperienceRecord> ExperienceStore::records() const {
  const util::MutexLock lock{mutex_};
  return records_;
}

std::string ExperienceStore::append(ExperienceRecord record) {
  const util::MutexLock lock{mutex_};
  if (record.id.empty()) {
    record.id = "exp-" + std::to_string(nextId_++);
  }
  const std::string id = record.id;
  appendLineLocked(record.toJson());
  if (ExperienceRecord* existing = findLocked(id)) {
    *existing = std::move(record);
  } else {
    records_.push_back(std::move(record));
  }
  noteCounter("exp.store.appends");
  return id;
}

void ExperienceStore::penalize(const std::string& id) {
  const util::MutexLock lock{mutex_};
  ExperienceRecord* rec = findLocked(id);
  if (rec == nullptr) {
    return;
  }
  rec->regressions += 1;
  util::Json line = util::Json::makeObject();
  line.set("type", "penalize");
  line.set("id", id);
  appendLineLocked(line);
  noteCounter("exp.store.penalized");
}

void ExperienceStore::confirm(const std::string& id) {
  const util::MutexLock lock{mutex_};
  ExperienceRecord* rec = findLocked(id);
  if (rec == nullptr) {
    return;
  }
  rec->confirmations += 1;
  util::Json line = util::Json::makeObject();
  line.set("type", "confirm");
  line.set("id", id);
  appendLineLocked(line);
  noteCounter("exp.store.confirmed");
}

std::vector<RecallMatch> ExperienceStore::recall(const Fingerprint& fingerprint,
                                                 std::size_t topK,
                                                 double minSimilarity) const {
  const util::MutexLock lock{mutex_};
  std::vector<RecallMatch> matches;
  for (const ExperienceRecord& rec : records_) {
    if (stale(rec)) {
      continue;
    }
    const double sim = similarity(fingerprint, rec.fingerprint);
    if (sim >= minSimilarity) {
      matches.push_back(RecallMatch{rec, sim});
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const RecallMatch& a, const RecallMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.record.id < b.record.id;
            });
  if (matches.size() > topK) {
    matches.resize(topK);
  }
  return matches;
}

void ExperienceStore::compact(const CompactionHooks& hooks) {
  const util::MutexLock lock{mutex_};
  // Fold the journal in by dropping stale records from the live set.
  std::vector<ExperienceRecord> live;
  live.reserve(records_.size());
  for (ExperienceRecord& rec : records_) {
    if (stale(rec)) {
      noteCounter("exp.store.evicted");
    } else {
      live.push_back(std::move(rec));
    }
  }
  // Canonical (tenant, id) order: the compacted generation and records()
  // are then a function of the record set alone, not of how appends were
  // batched into commits or of the order concurrent writers reached them.
  std::sort(live.begin(), live.end(),
            [](const ExperienceRecord& a, const ExperienceRecord& b) {
              return std::tie(a.tenant, a.id) < std::tie(b.tenant, b.id);
            });
  records_ = std::move(live);
  noteCounter("exp.store.compactions");
  if (path_.empty()) {
    return;
  }

  // Crash-safe generation swap: write the whole new generation to a temp
  // file, then atomically rename over the store. Dying between the two
  // steps leaves the old generation intact; a stale temp file from an
  // earlier crash is simply overwritten here and never read by load.
  const std::string tmp = path_ + ".compact.tmp";
  std::string out;
  for (const ExperienceRecord& rec : records_) {
    out += rec.toJson().dump();
    out += '\n';
  }
  util::ensureParentDir(tmp);
  util::writeFile(tmp, out);
  if (hooks.crashBeforeRename) {
    return;  // test hook: simulated death with both generations on disk
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("compaction rename failed for " + path_);
  }
}

std::size_t ExperienceStore::absorbShardLocked(const std::string& shard) {
  if (!util::fileExists(shard)) {
    return 0;
  }
  std::size_t absorbed = 0;
  const std::string contents = util::readFile(shard);
  std::size_t lineNo = 0;
  for (const std::string& line : util::split(contents, '\n')) {
    ++lineNo;
    if (util::trim(line).empty()) {
      continue;
    }
    try {
      ExperienceRecord rec = ExperienceRecord::fromJson(util::Json::parse(line));
      appendLineLocked(rec.toJson());
      if (ExperienceRecord* existing = findLocked(rec.id)) {
        *existing = std::move(rec);  // re-run of a cell: last wins
      } else {
        records_.push_back(std::move(rec));
      }
      ++absorbed;
    } catch (const util::JsonError& e) {
      util::logLine(util::LogLevel::Warn, kComponent,
                    shard + ":" + std::to_string(lineNo) +
                        ": skipping corrupt shard line (" + e.what() + ")");
    }
  }
  return absorbed;
}

std::size_t ExperienceStore::absorbShardDir(const std::string& dir,
                                            const std::string& filePrefix) {
  std::size_t absorbed = 0;
  std::vector<std::string> scanned;
  {
    const util::MutexLock lock{mutex_};
    // The listing happens here, under the lock, NOT in the caller: a shard
    // journal that a concurrent writer finished creating any time before
    // this point is part of the scan instead of silently missing until the
    // next compaction. listDir returns sorted paths, so absorb order (and
    // therefore last-wins dedup) is deterministic.
    for (const std::string& path : util::listDir(dir)) {
      const std::size_t slash = path.find_last_of('/');
      const std::string base =
          slash == std::string::npos ? path : path.substr(slash + 1);
      if (util::startsWith(base, filePrefix)) {
        absorbed += absorbShardLocked(path);
        scanned.push_back(path);
      }
    }
  }
  // Single writer: dedup + journal fold happen in one atomic compaction,
  // after which the shard files are dead weight.
  compact();
  for (const std::string& shard : scanned) {
    if (util::fileExists(shard)) {
      (void)std::remove(shard.c_str());
    }
  }
  noteCounter("exp.store.shards_absorbed", static_cast<double>(absorbed));
  return absorbed;
}

// ------------------------------------------------- WarmStartProvider glue --

std::optional<core::WarmStartHint> ExperienceStore::warmStart(
    const agents::IoReport& report) const {
  const std::vector<RecallMatch> matches =
      recall(fingerprintOf(report), options_.topK, options_.minSimilarity);
  if (matches.empty()) {
    noteCounter("exp.store.recall_misses");
    return std::nullopt;
  }
  noteCounter("exp.store.recall_hits");

  core::WarmStartHint hint;
  hint.config = matches.front().record.bestConfig;
  hint.similarity = matches.front().similarity;
  std::string provenance = "recalled " + std::to_string(matches.size()) +
                           " experience(s):";
  for (const RecallMatch& match : matches) {
    hint.sourceIds.push_back(match.record.id);
    (void)hint.rules.merge(match.record.rules);
    provenance += " " + match.record.id + " (" + match.record.workload +
                  ", similarity " + util::formatDouble(match.similarity, 3) +
                  ", best " + util::formatDouble(match.record.bestSpeedup(), 2) +
                  "x)";
  }
  hint.provenance = std::move(provenance);
  return hint;
}

void ExperienceStore::observeWarmStartOutcome(
    const std::vector<std::string>& sourceIds, bool regressed, bool confirmed) {
  // Only the top match's config was actually trialed, but a regression
  // indicts the whole neighbourhood that produced the hint; confirmations
  // credit it symmetrically.
  for (const std::string& id : sourceIds) {
    if (regressed) {
      penalize(id);
    } else if (confirmed) {
      confirm(id);
    }
  }
}

}  // namespace stellar::exp
