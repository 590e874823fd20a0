// SessionJournal: crash-safe persistence for one tuning session (ISSUE 7).
//
// Everything in the engine's tool loop is deterministic given the seed and
// workload — the only facts a resumed session cannot re-derive for free are
// the measurement results (simulator runs are the expensive part on a real
// system). So the journal records, append-only JSONL, exactly what a
// resumed process needs to fast-forward: a header binding the journal to a
// session identity (workload, seeds, models, fault spec), one line per
// measurement keyed by a monotonic index, the transcript as it grows, and a
// final summary line.
//
// On resume the engine replays journaled measurements instead of re-running
// the simulator, re-executes every (deterministic) decision in between, and
// arrives at a bit-identical final transcript and configuration — the
// KILL-RESUME metamorphic law in tests/core. The file discipline matches
// exp::ExperienceStore: one util::appendToFile (a single fwrite) per line,
// torn or corrupt tail lines skipped (counted) on load, so a SIGKILL
// mid-write never poisons the session.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "agents/transcript.hpp"
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
  /// ran it.
  [[nodiscard]] std::optional<JournaledMeasurement> replay(std::size_t index) const;
  void recordMeasurement(std::size_t index, const JournaledMeasurement& measurement);

  /// Appends transcript events not yet journaled. A resumed run regenerates
  /// the journaled prefix verbatim (decisions are deterministic), so only
  /// the tail past what load() saw is written.
  void syncTranscript(const agents::Transcript& transcript);

  /// Appends the final summary line; the session is complete.
  void markComplete(const util::Json& summary);

  [[nodiscard]] bool bound() const noexcept { return header_.has_value(); }
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] std::size_t measurementCount() const noexcept {
    return measurements_.size();
  }
  [[nodiscard]] std::size_t transcriptEventsJournaled() const noexcept {
    return transcriptWritten_;
  }
  [[nodiscard]] std::size_t corruptLinesSkipped() const noexcept {
    return corruptSkipped_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void load();
  void appendLine(const util::Json& line);

  std::string path_;
  std::optional<util::Json> header_;
  std::map<std::size_t, JournaledMeasurement> measurements_;
  std::size_t transcriptWritten_ = 0;
  bool complete_ = false;
  std::size_t corruptSkipped_ = 0;
  /// The loaded file ended without '\n' (torn tail): the next append must
  /// start on a fresh line.
  bool pendingNewline_ = false;
};

}  // namespace stellar::core
