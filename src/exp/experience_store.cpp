#include "exp/experience_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <tuple>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace stellar::exp {

namespace {

constexpr const char* kComponent = "exp.store";

/// Minimum fingerprint similarity for a warm-start recall: separates
/// same-family workloads (> 0.99 across seeds/scales) from different I/O
/// characters (< 0.9, e.g. IOR vs MDWorkbench).
constexpr double kRecallMinSimilarity = 0.95;
/// Records merged into one warm-start hint.
constexpr std::size_t kRecallTopK = 3;
/// Strikes a once-confirmed record survives before it is stale.
constexpr std::int32_t kEvictionRegressions = 2;

/// The record in `records` with `id`, or null.
ExperienceRecord* findIn(std::vector<ExperienceRecord>& records, const std::string& id) {
  for (ExperienceRecord& rec : records) {
    if (rec.id == id) {
      return &rec;
    }
  }
  return nullptr;
}

/// Stale records are skipped by recall and dropped at compaction. Every
/// confirmation beyond the initial one buys one extra strike before the
/// record is considered misleading.
bool stale(const ExperienceRecord& record) noexcept {
  return record.regressions >=
         kEvictionRegressions + std::max(0, record.confirmations - 1);
}

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

// A record's `recall` object: {"verdict": "regressed"|"confirmed",
// "sources": [ids]}. Present only while a verdict is set.
util::Json recallToJson(const ExperienceRecord& rec) {
  util::Json sources = util::Json::makeArray();
  for (const std::string& id : rec.recalledIds) {
    sources.push(id);
  }
  util::Json recall = util::Json::makeObject();
  recall.set("verdict", rec.recallVerdict == core::WarmStartVerdict::Regressed
                            ? "regressed"
                            : "confirmed");
  recall.set("sources", std::move(sources));
  return recall;
}

void recallFromJson(const util::Json& json, ExperienceRecord& rec) {
  const std::string verdict = json.at("verdict").asString();
  if (verdict == "regressed") {
    rec.recallVerdict = core::WarmStartVerdict::Regressed;
  } else if (verdict == "confirmed") {
    rec.recallVerdict = core::WarmStartVerdict::Confirmed;
  } else {
    throw util::JsonError("unknown recall verdict '" + verdict + "'");
  }
  for (const util::Json& id : json.at("sources").asArray()) {
    rec.recalledIds.push_back(id.asString());
  }
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
  if (recallVerdict != core::WarmStartVerdict::None) {
    root.set("recall", recallToJson(*this));
  }
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
  if (json.contains("recall")) {
    recallFromJson(json.at("recall"), rec);
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
  if (run.warmStartVerdict != core::WarmStartVerdict::None) {
    rec.recallVerdict = run.warmStartVerdict;
    rec.recalledIds = run.warmStartSources;
  }
  return rec;
}

// ------------------------------------------------------------------ store --

ExperienceStore::ExperienceStore(std::string path, StoreOptions options)
    : path_(std::move(path)), options_(options) {
  const util::MutexLock lock{mutex_};
  loadLocked();
}

void ExperienceStore::noteCounter(const char* name, double delta) const {
  if (options_.counters != nullptr) {
    options_.counters->counter(name).add(delta);
  }
}

void ExperienceStore::loadLocked() {
  if (path_.empty() || !util::fileExists(path_)) {
    return;
  }
  // Loaded into a local: the callback runs outside this function's lock
  // scope as far as the thread-safety analysis can tell.
  std::vector<ExperienceRecord> loaded;
  const auto readLine = [&loaded](const util::Json& doc) {
    const std::string type = doc.getString("type");
    if (type == "record") {
      ExperienceRecord rec = ExperienceRecord::fromJson(doc);
      if (ExperienceRecord* existing = findIn(loaded, rec.id)) {
        *existing = std::move(rec);  // last write wins (re-filed id)
      } else {
        loaded.push_back(std::move(rec));
      }
    } else if (type == "penalize" || type == "confirm") {
      // Verdict lines of stores written before verdicts rode on records.
      if (ExperienceRecord* rec = findIn(loaded, doc.at("id").asString())) {
        (type == "penalize" ? rec->regressions : rec->confirmations) += 1;
      }
    } else {
      throw util::JsonError("unknown line type '" + type + "'");
    }
  };
  corruptSkipped_ = util::forEachJsonLine(path_, kComponent, readLine);
  records_ = std::move(loaded);
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

const ExperienceRecord& ExperienceStore::fileLocked(ExperienceRecord record) {
  if (record.id.empty()) {
    record.id = "exp-" + std::to_string(nextId_++);
  }
  // A store holds no verdicts: absorb() has taken them off already.
  record.recallVerdict = core::WarmStartVerdict::None;
  record.recalledIds.clear();
  noteCounter("exp.store.appends");
  if (ExperienceRecord* existing = findIn(records_, record.id)) {
    *existing = std::move(record);
    return *existing;
  }
  return records_.emplace_back(std::move(record));
}

std::vector<std::string> ExperienceStore::absorb(std::vector<ExperienceRecord> batch) {
  const util::MutexLock lock{mutex_};
  struct Verdict {
    core::WarmStartVerdict kind = core::WarmStartVerdict::None;
    std::vector<std::string> recalledIds;
  };
  std::map<std::string, Verdict> verdicts;  // by filing id: the last filing wins
  std::vector<std::string> ids;
  ids.reserve(batch.size());
  for (ExperienceRecord& record : batch) {
    Verdict verdict{record.recallVerdict, std::move(record.recalledIds)};
    ids.push_back(fileLocked(std::move(record)).id);
    verdicts[ids.back()] = std::move(verdict);
  }
  // Verdicts after filing: a batch that re-files a recalled record leaves
  // the verdict on the re-filed version.
  for (const auto& [filingId, verdict] : verdicts) {
    if (verdict.kind == core::WarmStartVerdict::None) {
      continue;
    }
    for (const std::string& id : verdict.recalledIds) {
      ExperienceRecord* rec = findIn(records_, id);
      if (rec == nullptr) {
        continue;  // evicted since the run recalled it
      }
      if (verdict.kind == core::WarmStartVerdict::Regressed) {
        rec->regressions += 1;
        noteCounter("exp.store.penalized");
      } else {
        rec->confirmations += 1;
        noteCounter("exp.store.confirmed");
      }
    }
  }
  compactLocked();
  return ids;
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

void ExperienceStore::compactLocked() {
  // Drop stale records from the live set.
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

  // Crash-safe generation swap: dying before the rename leaves the old
  // generation intact.
  std::string out;
  for (const ExperienceRecord& rec : records_) {
    out += rec.toJson().dump();
    out += '\n';
  }
  util::replaceFile(path_, out);
}

// ------------------------------------------------- WarmStartProvider glue --

std::optional<core::WarmStartHint> ExperienceStore::warmStart(
    const agents::IoReport& report) const {
  const std::vector<RecallMatch> matches =
      recall(fingerprintOf(report), kRecallTopK, kRecallMinSimilarity);
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

}  // namespace stellar::exp
