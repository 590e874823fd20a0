// SessionJournal: the one durable record of a tuning session.
//
// Everything in the engine's tool loop is deterministic given the seed and
// workload — the only facts a resumed session cannot re-derive for free are
// the measurement results (simulator runs are the expensive part on a real
// system). So the journal records, append-only JSONL, exactly what a
// resumed process needs to fast-forward: a header binding the journal to a
// session identity (workload, job shape, seeds, models, fault spec), one
// line per measurement keyed by a monotonic index and bound to the
// configuration and run seed it measured, and a final line carrying the
// session's canonical result document, which the caller appends once it
// has filed the result.
//
// On resume the engine replays journaled measurements instead of re-running
// the simulator, re-executes every (deterministic) decision in between, and
// arrives at a bit-identical result — the KILL-RESUME metamorphic law in
// tests/core. A complete journal's result document is what stellard replays
// for a finished cell. The file goes through util/file's crash-safe JSONL
// layer: one util::appendJsonLine (a single fwrite, started on a fresh line
// after a torn tail) per line, torn or corrupt lines skipped (counted) on
// load by util::forEachJsonLine, so a SIGKILL mid-write never poisons the
// session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "pfs/params.hpp"
#include "util/json.hpp"

namespace stellar::core {

/// Thrown when the engine's measurement cap interrupts a session mid-loop
/// (the deterministic stand-in for a crash; the CLI maps it to exit 3).
class SessionInterrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One journaled simulator measurement.
struct JournaledMeasurement {
  double wallSeconds = 0.0;
  std::string outcome;  ///< pfs::runOutcomeName of the (possibly failed) run
  std::string failureReason;
  pfs::PfsConfig config;   ///< the configuration that was measured
  std::uint64_t seed = 0;  ///< the run seed it was measured with
};

class SessionJournal {
 public:
  /// Opens (and loads) the journal at `path`; a missing file starts a fresh
  /// session. Corrupt or torn lines are skipped and counted.
  explicit SessionJournal(std::string path);

  /// Binds the journal to a session identity. A fresh journal records the
  /// header; a resumed journal verifies it and throws std::runtime_error on
  /// mismatch (replaying another session's measurements would be silent
  /// corruption).
  void bind(const util::Json& header);

  /// The journaled result of measurement `index`, if this session already
  /// ran it. The caller replays it only if its config and seed match the
  /// run it is about to make.
  [[nodiscard]] std::optional<JournaledMeasurement> replay(std::size_t index) const;
  void recordMeasurement(std::size_t index, const JournaledMeasurement& measurement);

  /// Appends the final line carrying the session's result document; the
  /// session is complete. Sticky: later calls append nothing.
  void markComplete(const util::Json& result);

  [[nodiscard]] bool bound() const noexcept { return header_.has_value(); }
  [[nodiscard]] bool complete() const noexcept { return result_.has_value(); }
  /// The result document of a complete session.
  [[nodiscard]] const std::optional<util::Json>& result() const noexcept {
    return result_;
  }
  [[nodiscard]] std::size_t measurementCount() const noexcept {
    return measurements_.size();
  }
  [[nodiscard]] std::size_t corruptLinesSkipped() const noexcept {
    return corruptSkipped_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void load();

  std::string path_;
  std::optional<util::Json> header_;
  std::map<std::size_t, JournaledMeasurement> measurements_;
  std::optional<util::Json> result_;
  std::size_t corruptSkipped_ = 0;
};

}  // namespace stellar::core
