#include "core/session_journal.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "util/file.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace stellar::core {

namespace {
constexpr const char* kComponent = "session-journal";

// JSON numbers round-trip through %.12g, which is lossy for doubles — and a
// replayed measurement that differs in its last bits could flip a
// comparison downstream, breaking the bit-identical-resume guarantee. The
// journal therefore carries the exact IEEE-754 bit pattern next to the
// human-readable value and prefers it on load.
std::string doubleBits(double value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  return buf;
}

double doubleFromBits(const std::string& hex) {
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(std::strtoull(hex.c_str(), nullptr, 16)));
}

}  // namespace

SessionJournal::SessionJournal(std::string path) : path_(std::move(path)) {
  load();
}

void SessionJournal::load() {
  if (path_.empty() || !util::fileExists(path_)) {
    return;
  }
  const std::string contents = util::readFile(path_);
  // A SIGKILL mid-write can leave a torn line with no trailing newline; the
  // next append must not glue itself onto that fragment (it would corrupt a
  // second line and lose its own record too).
  pendingNewline_ = !contents.empty() && contents.back() != '\n';
  std::size_t lineNo = 0;
  for (const std::string& line : util::split(contents, '\n')) {
    ++lineNo;
    if (util::trim(line).empty()) {
      continue;
    }
    try {
      const util::Json doc = util::Json::parse(line);
      const std::string type = doc.getString("type");
      if (type == "header") {
        header_ = doc;
      } else if (type == "measurement") {
        JournaledMeasurement m;
        m.wallSeconds = doc.contains("wall_bits")
                            ? doubleFromBits(doc.at("wall_bits").asString())
                            : doc.getNumber("wall_seconds");
        m.outcome = doc.getString("outcome");
        m.failureReason = doc.getString("failure_reason");
        // Last write wins: a re-appended index (should not happen, but a
        // crash between decide and record can duplicate) stays consistent.
        measurements_[doc.at("index").asInteger<std::size_t>()] = std::move(m);
      } else if (type == "transcript") {
        ++transcriptWritten_;
      } else if (type == "final") {
        complete_ = true;
      } else {
        throw util::JsonError("unknown line type '" + type + "'");
      }
    } catch (const util::JsonError& e) {
      // Torn tail line after a SIGKILL, or plain corruption: skip it and
      // keep the journal usable — the resumed run re-measures that index.
      ++corruptSkipped_;
      util::logLine(util::LogLevel::Warn, kComponent,
                    path_ + ":" + std::to_string(lineNo) + ": skipping corrupt line (" +
                        e.what() + ")");
    }
  }
}

void SessionJournal::appendLine(const util::Json& line) {
  if (path_.empty()) {
    return;  // memory-only journal (tests)
  }
  std::string text = line.dump() + "\n";
  if (pendingNewline_) {
    text.insert(text.begin(), '\n');  // terminate the torn tail line first
  }
  util::appendToFile(path_, text);
  pendingNewline_ = false;
}

void SessionJournal::bind(const util::Json& header) {
  if (header_) {
    if (header_->dump() != header.dump()) {
      throw std::runtime_error(
          "session journal " + path_ +
          " belongs to a different session:\n  journaled: " + header_->dump() +
          "\n  requested: " + header.dump());
    }
    return;  // resuming the same session
  }
  header_ = header;
  appendLine(header);
}

std::optional<JournaledMeasurement> SessionJournal::replay(std::size_t index) const {
  const auto it = measurements_.find(index);
  if (it == measurements_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void SessionJournal::recordMeasurement(std::size_t index,
                                       const JournaledMeasurement& measurement) {
  util::Json line = util::Json::makeObject();
  line.set("type", "measurement");
  line.set("index", static_cast<std::int64_t>(index));
  line.set("wall_seconds", measurement.wallSeconds);
  line.set("wall_bits", doubleBits(measurement.wallSeconds));
  line.set("outcome", measurement.outcome);
  if (!measurement.failureReason.empty()) {
    line.set("failure_reason", measurement.failureReason);
  }
  appendLine(line);
  measurements_[index] = measurement;
}

void SessionJournal::syncTranscript(const agents::Transcript& transcript) {
  const auto& events = transcript.events();
  for (std::size_t i = transcriptWritten_; i < events.size(); ++i) {
    util::Json line = util::Json::makeObject();
    line.set("type", "transcript");
    line.set("actor", events[i].actor);
    line.set("title", events[i].title);
    line.set("body", events[i].body);
    appendLine(line);
  }
  transcriptWritten_ = std::max(transcriptWritten_, events.size());
}

void SessionJournal::markComplete(const util::Json& summary) {
  if (complete_) {
    return;
  }
  util::Json line = util::Json::makeObject();
  line.set("type", "final");
  line.set("summary", summary);
  appendLine(line);
  complete_ = true;
}

}  // namespace stellar::core
