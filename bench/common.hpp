// Shared plumbing for the figure/table harnesses: every binary regenerates
// one table or figure from the paper's evaluation section, printing the
// same rows/series the paper plots. Volume scale comes from STELLAR_SCALE
// (default 0.2; 1.0 = the paper's full workload sizes). The gated micro
// benches read their committed BENCH_*.json baselines through it too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace stellar::bench {

inline workloads::WorkloadOptions benchOptions() {
  workloads::WorkloadOptions opt;
  opt.ranks = 50;
  opt.scale = workloads::benchScale();
  return opt;
}

inline void printHeader(const std::string& title, const std::string& paperRef) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s; STELLAR_SCALE=%s)\n", paperRef.c_str(),
              util::formatDouble(workloads::benchScale(), 2).c_str());
  std::printf("================================================================\n");
}

inline std::string fmt(double v, int decimals = 2) {
  return util::formatDouble(v, decimals);
}

/// Upper median of a non-empty sample.
inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// "12.34 ± 0.56" mean/CI cell.
inline std::string meanCi(double mean, double ci, int decimals = 2) {
  return fmt(mean, decimals) + " ± " + fmt(ci, decimals);
}

/// One gated metric read from a committed BENCH_*.json baseline: its value,
/// or the reason the file gives none.
struct BaselineMetric {
  double value = 0.0;
  std::string missing;  ///< empty when `value` was read

  [[nodiscard]] bool ok() const noexcept { return missing.empty(); }
};

/// Reads `metric` from the baseline at `path`, an array of rows each with a
/// string "metric" and a number "value" (the first matching row wins). An
/// unreadable file, a document that is not an array of such rows, or one
/// without the metric yields the reason instead, so a baseline gate cannot
/// pass on a comparison it never made.
inline BaselineMetric readBaseline(const std::string& path, const std::string& metric) {
  try {
    const util::Json doc = util::Json::parse(util::readFile(path));
    if (!doc.isArray()) {
      return {.missing = path + " is not an array of rows"};
    }
    const util::Json::Array& rows = doc.asArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const util::Json& row = rows[i];
      if (!row.contains("metric") || !row.contains("value") ||
          !row.at("metric").isString() || !row.at("value").isNumber()) {
        return {.missing = path + " row " + std::to_string(i) +
                           " lacks a string \"metric\" or a number \"value\""};
      }
      if (row.at("metric").asString() == metric) {
        return {.value = row.at("value").asNumber(), .missing = {}};
      }
    }
    return {.missing = path + " has no \"" + metric + "\" row"};
  } catch (const std::exception& e) {
    return {.missing = path + ": " + e.what()};
  }
}

/// The rows of one committed BENCH_*.json file, in the order added: an
/// array of {"name", "metric", "value"} objects, plus "seed" on rows that
/// carry one, written with a 2-space indent and a trailing newline.
class BenchRows {
 public:
  /// `seed`, when set, goes on every row added without a seed of its own.
  explicit BenchRows(std::string name, std::optional<std::int64_t> seed = std::nullopt)
      : name_(std::move(name)), seed_(seed) {}

  void add(const std::string& metric, double value,
           std::optional<std::int64_t> seed = std::nullopt) {
    util::Json row = util::Json::makeObject();
    row.set("name", name_);
    row.set("metric", metric);
    row.set("value", value);
    if (const std::optional<std::int64_t> rowSeed = seed ? seed : seed_) {
      row.set("seed", *rowSeed);
    }
    doc_.push(std::move(row));
  }

  /// Writes the rows to `path` (relative to the working directory) and says so.
  void write(const std::string& path) const {
    util::writeFile(path, doc_.dump(2) + "\n");
    std::printf("wrote %s (%zu rows)\n", path.c_str(), doc_.asArray().size());
  }

 private:
  std::string name_;
  std::optional<std::int64_t> seed_;
  util::Json doc_ = util::Json::makeArray();
};

}  // namespace stellar::bench
